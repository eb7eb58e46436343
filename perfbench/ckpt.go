package main

import (
	"bytes"
	"fmt"
	"time"

	"nocs/internal/bench"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

// ckptRing runs the E1 token ring (bench.BuildEndurance) twice per pass:
// straight through on the serial oracle, and sharded with a
// Machine.Snapshot at a fixed interval. Every checkpoint is restored into a
// freshly built machine and must re-snapshot to the same bytes; the
// checkpoint nearest mid-run is run on to the horizon and must end with the
// straight-through run's EnduranceSummary.
//
// The ring has no random input, so the seed places the checkpoints: all of
// them are shifted by the same seed-derived phase within one interval.
type ckptRing struct {
	cores       int
	horizon     sim.Cycles
	checkpoints int

	ec     bench.EnduranceConfig
	cycles []sim.Cycles // checkpoint cycles
	mid    int          // index of the checkpoint run on to the horizon
}

// newCkptRing sizes the ring at 16 cores for 8 M cycles (about 128 M
// instructions and 0.5 M events) with seven checkpoints.
func newCkptRing() *ckptRing { return &ckptRing{cores: 16, horizon: 8_000_000, checkpoints: 7} }

func (c *ckptRing) setup(r *run) error {
	c.ec = bench.EnduranceConfig{Cores: c.cores, Shards: c.cores, Horizon: c.horizon}
	every := c.horizon / sim.Cycles(c.checkpoints+1)
	phase := sim.Cycles(sim.NewRNG(r.seed).Uint64() % uint64(every))
	c.cycles = nil
	for k := 1; k <= c.checkpoints; k++ {
		c.cycles = append(c.cycles, sim.Cycles(k)*every+phase-every/2)
	}
	c.mid = c.checkpoints / 2
	for i := 0; i < machineProbes/10; i++ {
		t0 := time.Now()
		m := machine.New(machine.WithCores(c.cores), machine.WithShards(c.cores),
			machine.WithWorkers(r.workers), machine.WithThreads(2), machine.WithSMTSlots(2))
		r.sample("machine.build_ms", float64(time.Since(t0).Nanoseconds())/1e6)
		if m.Cores() != c.cores {
			return fmt.Errorf("ring topology built %d cores", m.Cores())
		}
	}
	return nil
}

// build constructs the ring machine; the build is a set-up unit.
func (c *ckptRing) build(r *run, parent int, workers int) (*machine.Machine, bool) {
	ec := c.ec
	ec.Workers = workers
	var m *machine.Machine
	var err error
	r.setupUnit("build", parent, func() { m, err = bench.BuildEndurance(bench.RunConfig{Seed: r.seed}, ec) })
	if err != nil {
		r.check(false, "build ring: %v", err)
		return nil, false
	}
	return m, true
}

// runTo advances m to the given cycle as one span.
func (c *ckptRing) runTo(r *run, parent int, m *machine.Machine, to sim.Cycles) (time.Duration, error) {
	d := r.unit(fmt.Sprintf("run to %d", to), parent, func() { m.RunUntil(to) })
	return d, m.Fatal()
}

func (c *ckptRing) snapshot(r *run, parent int, m *machine.Machine) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	d := r.unit("snapshot", parent, func() { err = m.Snapshot(&buf) })
	if err == nil {
		r.sample("ckpt_ms", float64(d.Nanoseconds())/1e6)
		r.sample("snapshot.encode_mb_per_s", float64(buf.Len())/1e6/d.Seconds())
	}
	return buf.Bytes(), err
}

func (c *ckptRing) pass(r *run, parent int) {
	// Straight through on the serial oracle.
	oracle, ok := c.build(r, parent, 1)
	if !ok {
		return
	}
	serD, err := c.runTo(r, parent, oracle, c.horizon)
	if !r.checkErr(err, "serial ring run") {
		return
	}
	want := bench.EnduranceSummary(c.ec, oracle)
	events, instrs := oracle.Scheduler().Ran(), oracle.Retired()
	r.setCount("sim.events", events)
	r.setCount("core.instrs", instrs)
	r.setCount("summary_hash", hash64(want))
	r.sample("sim_events_per_s", float64(events)/serD.Seconds())
	r.sample("sim_instrs_per_s", float64(instrs)/serD.Seconds())

	// Sharded, pausing for a checkpoint at each checkpoint cycle.
	sharded, ok := c.build(r, parent, r.workers)
	if !ok {
		return
	}
	var parD time.Duration
	ckpts := make([][]byte, 0, len(c.cycles))
	for _, at := range c.cycles {
		d, err := c.runTo(r, parent, sharded, at)
		parD += d
		if !r.checkErr(err, fmt.Sprintf("sharded ring run to %d", at)) {
			return
		}
		ckpt, err := c.snapshot(r, parent, sharded)
		if !r.checkErr(err, fmt.Sprintf("checkpoint at %d", at)) {
			return
		}
		ckpts = append(ckpts, ckpt)
		r.count("snapshot.bytes", uint64(len(ckpt)))
		r.count("snapshot_hash", hash64(string(ckpt)))
	}
	d, err := c.runTo(r, parent, sharded, c.horizon)
	parD += d
	if r.checkErr(err, "sharded ring run") {
		got := bench.EnduranceSummary(c.ec, sharded)
		r.check(got == want, "sharded ring ends with summary %016x, serial oracle %016x", hash64(got), hash64(want))
	}
	r.sample("shard_speedup", serD.Seconds()/parD.Seconds())

	// Restore every checkpoint into a fresh machine; run the middle one on.
	for i, ckpt := range ckpts {
		m, ok := c.roundTrip(r, parent, i, ckpt)
		if !ok || i != c.mid {
			continue
		}
		if _, err := c.runTo(r, parent, m, c.horizon); r.checkErr(err, "ring run from mid-run checkpoint") {
			got := bench.EnduranceSummary(c.ec, m)
			r.check(got == want, "ring restored at cycle %d ends with summary %016x, straight run %016x",
				c.cycles[i], hash64(got), hash64(want))
		}
	}
}

// roundTrip restores checkpoint i into a freshly built machine and
// re-snapshots it; the two encodings must be byte-identical. It is one
// checked operation and returns the restored machine when it passed.
func (c *ckptRing) roundTrip(r *run, parent, i int, ckpt []byte) (*machine.Machine, bool) {
	m, ok := c.build(r, parent, r.workers)
	if !ok {
		return nil, false
	}
	var err error
	d := r.unit("restore", parent, func() { err = m.Restore(bytes.NewReader(ckpt)) })
	if err == nil {
		r.sample("restore_ms", float64(d.Nanoseconds())/1e6)
		r.sample("snapshot.decode_mb_per_s", float64(len(ckpt))/1e6/d.Seconds())
		var again []byte
		if again, err = c.snapshot(r, parent, m); err == nil && !bytes.Equal(again, ckpt) {
			err = fmt.Errorf("re-snapshot differs (%d bytes vs %d)", len(again), len(ckpt))
		}
	}
	return m, r.checkErr(err, fmt.Sprintf("checkpoint %d round trip", i))
}

func (c *ckptRing) metrics(r *run) map[string]float64 {
	out := map[string]float64{
		"sim_events_per_s":         median(r.samples["sim_events_per_s"]),
		"sim_instrs_per_s":         median(r.samples["sim_instrs_per_s"]),
		"sim.shard_speedup":        median(r.samples["shard_speedup"]),
		"ckpt_ms":                  median(r.samples["ckpt_ms"]),
		"restore_ms":               median(r.samples["restore_ms"]),
		"snapshot.encode_mb_per_s": median(r.samples["snapshot.encode_mb_per_s"]),
		"snapshot.decode_mb_per_s": median(r.samples["snapshot.decode_mb_per_s"]),
		"snapshot.encode_p90_ms":   percentile(r.samples["ckpt_ms"], 90),
		"snapshot.restore_p90_ms":  percentile(r.samples["restore_ms"], 90),
	}
	addCounts(r, out)
	return out
}
