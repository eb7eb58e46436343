package main

import (
	"fmt"
	"runtime"
	"time"

	"nocs/internal/asm"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/mem"
	"nocs/internal/monitor"
	"nocs/internal/pipeline"
	"nocs/internal/sim"
	"nocs/internal/workload"
)

// A microbenchmark drives one layer's public API in isolation, with the
// operation mix of the workload that stresses that layer, and reports host
// nanoseconds and heap allocations per operation. Where the layer's tests
// claim a zero-allocation steady state, a batch that allocates is a failed
// operation.
type microbench struct {
	ns, allocs string // metric names
	zeroAlloc  bool
	// prepare builds the fixture and returns a batch function that runs
	// some operations and returns how many it ran, or an error if the
	// layer misbehaved.
	prepare func() (batch func() (int, error), err error)
}

// microBudget is the host time each microbenchmark measures for.
const microBudget = 300 * time.Millisecond

var micros = []microbench{
	{ns: "sim.heap_ns_per_event", allocs: "sim.heap_allocs_per_event", zeroAlloc: true, prepare: heapMicro},
	{ns: "kernel.ps_ns_per_req", allocs: "kernel.ps_allocs_per_req", prepare: serverMicro(
		func(s *sim.Shard, c int) queueServer { return kernel.NewPS(s, c, 10, nil) })},
	{ns: "kernel.fcfs_ns_per_req", allocs: "kernel.fcfs_allocs_per_req", prepare: serverMicro(
		func(s *sim.Shard, c int) queueServer { return kernel.NewFCFS(s, c, 10, nil) })},
	{ns: "pipeline.charge_ns", allocs: "pipeline.charge_allocs", zeroAlloc: true, prepare: chargeMicro},
	{ns: "monitor.arm_wake_ns", allocs: "monitor.arm_wake_allocs", prepare: monitorMicro},
	{ns: "core.ns_per_instr", allocs: "core.allocs_per_instr", zeroAlloc: true, prepare: coreMicro},
}

// runMicro runs every microbenchmark; each is one checked operation.
func runMicro(r *run) map[string]float64 {
	out := map[string]float64{}
	for _, mb := range micros {
		ns, allocs, err := mb.measure(microBudget)
		if r.checkErr(err, mb.ns) {
			out[mb.ns], out[mb.allocs] = ns, allocs
		}
	}
	return out
}

// measure warms the fixture up, then runs batches for the budget. It
// returns the median over batches of ns per operation and the mean heap
// allocations per operation.
func (mb microbench) measure(budget time.Duration) (nsPerOp, allocsPerOp float64, err error) {
	batch, err := mb.prepare()
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < 3; i++ { // grow heaps, freelists and caches
		if _, err := batch(); err != nil {
			return 0, 0, err
		}
	}
	var samples []float64
	var ops, batches uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < budget || batches < 5 {
		t0 := time.Now()
		n, err := batch()
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		samples = append(samples, float64(d.Nanoseconds())/float64(n))
		ops += uint64(n)
		batches++
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	if mb.zeroAlloc && mallocs/batches > 0 {
		err = fmt.Errorf("steady state allocates %d times per batch, want 0", mallocs/batches)
	}
	return median(samples), float64(mallocs) / float64(ops), err
}

// sink keeps the result of measured calls live.
var sink sim.Cycles

// rearm is an event that re-arms itself when it fires, like a queueing
// server's completion event.
type rearm struct {
	e   *sim.Engine
	rng *sim.RNG
	h   sim.Handle
}

func (a *rearm) arm()     { a.h = a.e.AtCallback(a.e.Now()+sim.Cycles(1+a.rng.Intn(1000)), "ps", a) }
func (a *rearm) OnEvent() { a.arm() }

// heapMicro keeps a PS-like number of pending events and, per operation,
// cancels and re-arms one of them (the PS server's reschedule on arrival)
// and steps the engine, whose fired event re-arms itself.
func heapMicro() (func() (int, error), error) {
	const depth, ops = 64, 10_000
	e := sim.NewEngine(nil)
	rng := sim.NewRNG(1)
	evs := make([]*rearm, depth)
	for i := range evs {
		evs[i] = &rearm{e: e, rng: rng}
		evs[i].arm()
	}
	i := 0
	return func() (int, error) {
		for n := 0; n < ops; n++ {
			a := evs[i]
			i = (i + 1) % depth
			e.Cancel(a.h)
			a.arm()
			if !e.Step() {
				return 0, fmt.Errorf("engine ran dry with %d events armed", depth)
			}
		}
		return ops, nil
	}, nil
}

// queueServer is the part of a kernel queueing server serverMicro drives.
type queueServer interface {
	SubmitAll([]workload.Request)
	Completed() uint64
}

// serverMicro feeds a queueing server batches of workload.Generate
// requests at offered load 0.9 and drains the engine after each batch.
func serverMicro(newServer func(s *sim.Shard, servers int) queueServer) func() (func() (int, error), error) {
	return func() (func() (int, error), error) {
		const servers, batchReqs = 4, 1000
		eng := sim.SoloShard(sim.NewEngine(nil))
		srv := newServer(eng, servers)
		rng := sim.NewRNG(1)
		svc := workload.NewBimodal(500, 5000, 0.9, rng)
		arr := workload.NewPoissonArrivals(workload.MeanForLoad(0.9, svc.Mean(), servers), rng)
		return func() (int, error) {
			before := srv.Completed()
			srv.SubmitAll(workload.Generate(batchReqs, eng.Now()+1, arr, svc))
			eng.Run(0)
			if got := srv.Completed() - before; got != batchReqs {
				return 0, fmt.Errorf("server completed %d of %d requests", got, batchReqs)
			}
			return batchReqs, nil
		}, nil
	}
}

// chargeMicro charges instruction latency to eight runnable threads of
// mixed weight sharing two SMT slots, as a contended core does per
// instruction.
func chargeMicro() (func() (int, error), error) {
	const ops = 100_000
	p := pipeline.New(2)
	for id := 0; id < 8; id++ {
		p.Add(id, 1+id%3)
	}
	return func() (int, error) {
		var sum sim.Cycles
		for n := 0; n < ops; n++ {
			sum += p.ChargedLatency(n&7, 100)
		}
		sink = sum
		return ops, nil
	}, nil
}

// wakeCounter is a monitor waiter that counts its wakes.
type wakeCounter struct{ wakes int }

func (w *wakeCounter) MonitorWake(addr, val int64, src mem.WriteSource) { w.wakes++ }

// monitorMicro arms a waiter on a word, blocks it in mwait, and wakes it
// with a store through memory, rotating over sixteen waiters and words.
func monitorMicro() (func() (int, error), error) {
	const waiters, ops = 16, 10_000
	const base = 0x1000
	mon := monitor.NewEngine()
	m := mem.NewMemory()
	m.AddObserver(mon)
	ws := make([]*wakeCounter, waiters)
	for i := range ws {
		ws[i] = &wakeCounter{}
	}
	return func() (int, error) {
		for n := 0; n < ops; n++ {
			w := ws[n%waiters]
			addr := int64(base + 8*(n%waiters))
			before := w.wakes
			mon.Arm(w, addr)
			if !mon.Wait(w) {
				return 0, fmt.Errorf("waiter did not block after arming 0x%x", addr)
			}
			m.Write(addr, int64(n), mem.SrcCPU)
			if w.wakes != before+1 {
				return 0, fmt.Errorf("store to 0x%x did not wake its waiter", addr)
			}
		}
		return ops, nil
	}, nil
}

// coreMicro runs the CoreInstructionRate ALU loop (add, compare-branch) on
// one hardware thread in fixed RunUntil windows, with a bound high enough
// that it never exits.
func coreMicro() (func() (int, error), error) {
	const window = 100_000
	prog, err := asm.Assemble("rate", `
main:
	movi r1, 0
	movi r2, 1000000000000
loop:
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`)
	if err != nil {
		return nil, err
	}
	m := machine.New()
	if err := m.Core(0).BindProgram(0, prog, "main"); err != nil {
		return nil, err
	}
	if err := m.Core(0).BootStart(0); err != nil {
		return nil, err
	}
	deadline := sim.Cycles(0)
	return func() (int, error) {
		before := m.Core(0).Retired()
		deadline += window
		m.RunUntil(deadline)
		n := int(m.Core(0).Retired() - before)
		if n == 0 {
			return 0, fmt.Errorf("no instructions retired in a %d-cycle window", window)
		}
		return n, m.Fatal()
	}, nil
}
