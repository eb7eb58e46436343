package bench

import (
	"fmt"
	"runtime"
	"time"

	"nocs/internal/machine"
	"nocs/internal/metrics"
)

// S1 — the scaling experiment (DESIGN.md §12). One E1 token-ring machine
// (BuildEndurance) with 64–256 simulated cores is run twice over the same
// horizon: once on the SerialScheduler (the determinism oracle) and once on
// the ShardedScheduler with worker goroutines. The workload is the paper's
// regime in miniature: every core runs a spinning compute thread plus a
// parked pacer thread in monitor/mwait, and a token travels a ring of
// cross-shard remote writes — each hop a monitor wake on another shard, the
// cheapest cross-core interaction the lookahead is derived from.
//
// S1 is deliberately NOT in the experiment registry: `-all` output (the
// golden file) is unchanged. Run it with `nocsim -scale`.

// DefaultScaleConfig returns the standard S1 sizing (64 cores, 400k
// cycles), or a CI-sized one (16 cores, 100k cycles) when quick is set.
func DefaultScaleConfig(quick bool) EnduranceConfig {
	ec := EnduranceConfig{
		Cores:   64,
		Workers: runtime.GOMAXPROCS(0),
		Horizon: 400_000,
	}
	if quick {
		ec.Cores = 16
		ec.Horizon = 100_000
	}
	return ec
}

// ScaleStats is the machine-readable output of RunScale, printed by
// `nocsim -scale` as the `S1 stats:` line that scripts/ci.sh and
// scripts/bench.sh read.
type ScaleStats struct {
	Cores, Shards, Workers int
	SerialWallSec          float64
	ParallelWallSec        float64
	// Speedup is sharded wall-clock speedup over the serial oracle at equal
	// seeds and byte-identical output. Bounded by min(Workers, GOMAXPROCS).
	Speedup      float64
	InstrsPerSec float64 // sustained sim-instrs/sec of the sharded run
	Retired      uint64
	// Pings is the token's hop count around the ring: the largest token any
	// core has handled.
	Pings uint64
	Hash  uint64
}

// RunScale executes the S1 scaling experiment: the E1 machine and horizon
// under the SerialScheduler and then under the ShardedScheduler with
// ec.Workers goroutines. It fails (rather than report a speedup) if the two
// runs' summaries differ in any byte.
func RunScale(cfg RunConfig, ec EnduranceConfig) (*Result, *ScaleStats, error) {
	ec.fill()
	if cfg.Quick && ec.Horizon > 100_000 {
		ec.Horizon = 100_000
	}

	// Warm-up pass (untimed, half horizon): page in the code and heap so the
	// serial-first measurement order doesn't hand the sharded run a warm
	// cache and inflate the speedup.
	warm := ec
	warm.Workers = 1
	warm.Horizon = ec.Horizon / 2
	wm, err := BuildEndurance(cfg, warm)
	if err != nil {
		return nil, nil, fmt.Errorf("S1 warm-up: %w", err)
	}
	wm.RunUntil(warm.Horizon)

	var last *machine.Machine
	run := func(shards, workers int) (string, time.Duration, error) {
		e := ec
		e.Shards, e.Workers = shards, workers
		m, err := BuildEndurance(cfg, e)
		if err != nil {
			return "", 0, err
		}
		t0 := time.Now()
		m.RunUntil(e.Horizon)
		wall := time.Since(t0)
		if err := m.Fatal(); err != nil {
			return "", 0, err
		}
		last = m
		return EnduranceSummary(e, m), wall, nil
	}
	hash, serWall, parWall, err := verifySharded("S1", run,
		[2]int{ec.Shards, 1}, [2]int{ec.Shards, ec.Workers})
	if err != nil {
		return nil, nil, err
	}
	retired := last.Retired()
	var hops int64
	for i := 0; i < ec.Cores; i++ {
		hops = max(hops, enduranceSeen(last, i))
	}
	if retired == 0 || hops == 0 {
		return nil, nil, fmt.Errorf("S1: degenerate run (retired=%d pings=%d)", retired, hops)
	}

	stats := &ScaleStats{
		Cores:           ec.Cores,
		Shards:          last.Shards(),
		Workers:         ec.Workers,
		SerialWallSec:   serWall.Seconds(),
		ParallelWallSec: parWall.Seconds(),
		Speedup:         serWall.Seconds() / parWall.Seconds(),
		InstrsPerSec:    float64(retired) / parWall.Seconds(),
		Retired:         retired,
		Pings:           uint64(hops),
		Hash:            hash,
	}

	t := metrics.NewTable(
		fmt.Sprintf("one machine across real CPUs (%d cores, %d shards, horizon %d cycles)",
			stats.Cores, stats.Shards, ec.Horizon),
		"scheduler", "workers", "wall ms", "speedup", "Minstr/s")
	t.Row("serial (oracle)", 1, serWall.Seconds()*1e3, 1.0,
		float64(retired)/serWall.Seconds()/1e6)
	t.Row("sharded", ec.Workers, parWall.Seconds()*1e3, stats.Speedup,
		stats.InstrsPerSec/1e6)

	res := &Result{
		ID:     "S1",
		Title:  "sharded scheduler scaling",
		Claim:  "one experiment can use every host CPU without giving up determinism",
		Tables: []*metrics.Table{t},
		Notes: []string{
			fmt.Sprintf("outputs byte-identical (fnv64a %016x): %d ring hops, %d instructions retired", stats.Hash, stats.Pings, retired),
			fmt.Sprintf("host GOMAXPROCS=%d — speedup is bounded by real CPUs, not by the scheduler", runtime.GOMAXPROCS(0)),
		},
	}
	return res, stats, nil
}
