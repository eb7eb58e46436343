package bench

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// enduranceRun builds and runs one E1-ring machine with the given layout
// and returns its summary; it fails if the token ring never advanced.
func enduranceRun(ec EnduranceConfig) func(shards, workers int) (string, time.Duration, error) {
	return func(shards, workers int) (string, time.Duration, error) {
		ec.Shards, ec.Workers = shards, workers
		m, err := BuildEndurance(RunConfig{}, ec)
		if err != nil {
			return "", 0, err
		}
		m.RunUntil(ec.Horizon)
		if err := m.Fatal(); err != nil {
			return "", 0, err
		}
		if enduranceSeen(m, 0) == 0 {
			return "", 0, errors.New("token ring never advanced")
		}
		return EnduranceSummary(ec, m), 0, nil
	}
}

// TestScaleShardSweepDeterminism pins the acceptance criterion on the full
// machine model: at shard counts 1, 2, 4, and 8 the ShardedScheduler's
// summary (per-core last token and retired instructions) is byte-identical
// to the SerialScheduler oracle at several worker counts.
func TestScaleShardSweepDeterminism(t *testing.T) {
	run := enduranceRun(EnduranceConfig{Cores: 8, Horizon: 60_000})
	for _, shards := range []int{1, 2, 4, 8} {
		layouts := [][2]int{{shards, 1}}
		for _, workers := range []int{2, 4} {
			if workers <= shards {
				layouts = append(layouts, [2]int{shards, workers})
			}
		}
		if _, _, _, err := verifySharded("S1", run, layouts...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScaleContendedWakes drives a dense cross-shard monitor-wake workload
// through the worker pool — every core's pacer is woken across shard
// boundaries continuously. Run under `go test -race` this is the data-race
// gate for the sharded path (wired into scripts/ci.sh).
func TestScaleContendedWakes(t *testing.T) {
	run := enduranceRun(EnduranceConfig{Cores: 8, Horizon: 80_000})
	if _, _, _, err := verifySharded("S1", run, [2]int{8, 1}, [2]int{8, 4}); err != nil {
		t.Fatal(err)
	}
}

// TestRunScaleExperiment exercises the full S1 entry point the CLI uses,
// including its internal serial-vs-sharded byte-identity check.
func TestRunScaleExperiment(t *testing.T) {
	ec := DefaultScaleConfig(true)
	ec.Cores = 8
	ec.Workers = 2
	res, stats, err := RunScale(RunConfig{Seed: 1, Quick: true}, ec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pings == 0 || stats.Retired == 0 || stats.Speedup <= 0 {
		t.Fatalf("degenerate stats: %+v", stats)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(res.Tables))
	}
	for _, want := range []string{"serial (oracle)", "sharded"} {
		if s := res.Tables[0].String(); !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}
