package bench

import (
	"bytes"
	"testing"

	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// enduranceTestConfig is small enough for -race CI but still sharded, so
// checkpoints land with live cross-shard ring traffic.
func enduranceTestConfig() EnduranceConfig {
	return EnduranceConfig{Cores: 4, Shards: 4, Workers: 1, Horizon: 60_000}
}

// TestEnduranceCheckpointResume is the CLI contract end to end: a
// checkpointed run must match the straight-through run byte for byte, and
// resuming from any emitted checkpoint must land on the same final summary.
func TestEnduranceCheckpointResume(t *testing.T) {
	cfg := RunConfig{Seed: 1}
	ec := enduranceTestConfig()

	straight, stats0, err := RunEndurance(cfg, ec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats0.Checkpoints != 0 || stats0.Resumed {
		t.Fatalf("plain run recorded checkpoints=%d resumed=%v", stats0.Checkpoints, stats0.Resumed)
	}

	type ckpt struct {
		at   sim.Cycles
		data []byte
	}
	var ckpts []ckpt
	sum, stats, err := RunEndurance(cfg, ec, 20_000, func(at sim.Cycles, data []byte) error {
		ckpts = append(ckpts, ckpt{at, append([]byte(nil), data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != straight {
		t.Fatalf("checkpointing perturbed the run:\n got %q\nwant %q", sum, straight)
	}
	if stats.Checkpoints != len(ckpts) || len(ckpts) == 0 {
		t.Fatalf("checkpoints=%d sunk=%d, want >0 and equal", stats.Checkpoints, len(ckpts))
	}

	for _, ck := range ckpts {
		snap, err := snapshot.Decode(ck.data)
		if err != nil {
			t.Fatalf("decode checkpoint at %d: %v", ck.at, err)
		}
		rcfg := cfg
		rcfg.FromSnapshot = snap
		rsum, rstats, err := RunEndurance(rcfg, ec, 0, nil)
		if err != nil {
			t.Fatalf("resume from cycle %d: %v", ck.at, err)
		}
		if !rstats.Resumed {
			t.Fatal("resumed run did not record Resumed")
		}
		if rsum != straight {
			t.Fatalf("resume from cycle %d diverged:\n got %q\nwant %q", ck.at, rsum, straight)
		}
		if rstats.Hash != stats.Hash {
			t.Fatalf("resume hash %016x != straight hash %016x", rstats.Hash, stats.Hash)
		}
	}
}

// TestFromSnapshotFork is the warm-start sweep pattern: one machine is run
// to a warm point and snapshotted once; several forks then restore from the
// same decoded snapshot and continue independently, each landing in exactly
// the state of the straight-through run.
func TestFromSnapshotFork(t *testing.T) {
	cfg := RunConfig{Seed: 1}
	ec := enduranceTestConfig()

	ref, err := BuildEndurance(cfg, ec)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunUntil(ec.Horizon)
	want := EnduranceSummary(ec, ref)

	warm, err := BuildEndurance(cfg, ec)
	if err != nil {
		t.Fatal(err)
	}
	warm.RunUntil(25_000)
	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	fcfg := cfg
	fcfg.FromSnapshot = snap
	for fork := 0; fork < 3; fork++ {
		m, err := BuildEndurance(fcfg, ec)
		if err != nil {
			t.Fatalf("fork %d: %v", fork, err)
		}
		if m.Now() != 25_000 {
			t.Fatalf("fork %d woke at cycle %d, want 25000", fork, m.Now())
		}
		m.RunUntil(ec.Horizon)
		if got := EnduranceSummary(ec, m); got != want {
			t.Fatalf("fork %d diverged:\n got %q\nwant %q", fork, got, want)
		}
	}
}

// TestEnduranceResumeWithFewerShards checkpoints a run that asked for more
// shards than it has cores and resumes it with the shard count the machine
// really had. Both runs end in the same state, so their summaries and
// hashes must match: the summary reports the machine's shard count, not
// the one requested.
func TestEnduranceResumeWithFewerShards(t *testing.T) {
	cfg := RunConfig{Seed: 1}
	asked := EnduranceConfig{Cores: 4, Shards: 8, Workers: 1, Horizon: 60_000}
	var last []byte
	sum, stats, err := RunEndurance(cfg, asked, 20_000, func(_ sim.Cycles, data []byte) error {
		last = append(last[:0], data...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(last)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.FromSnapshot = snap
	had := asked
	had.Shards = 4
	rsum, rstats, err := RunEndurance(rcfg, had, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rsum != sum || rstats.Hash != stats.Hash {
		t.Fatalf("resume with the machine's real shard count diverged (hash %016x vs %016x):\n got %q\nwant %q",
			rstats.Hash, stats.Hash, rsum, sum)
	}
	if stats.Shards != 4 {
		t.Fatalf("stats report %d shards, want the machine's 4", stats.Shards)
	}
}
