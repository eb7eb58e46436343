package bench

import (
	"fmt"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/device"
	"nocs/internal/faultinject"
	"nocs/internal/hwthread"
	"nocs/internal/irq"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F2",
		Title: "I/O service paths under load: interrupts vs polling vs mwait threads",
		Claim: "mwait threads give polling-class latency without wasting cores, and interrupt-class efficiency without interrupt latency (§2 Fast I/O without Inefficient Polling)",
		Run:   runF2,
	})
	Register(&Experiment{
		ID:    "A2",
		Title: "Ablation: monitor without DMA visibility (today's x86)",
		Claim: "hardware must monitor updates by I/O devices; without it, device events are lost to mwait and the platform falls back to interrupts (§4 Generalized monitor-mwait)",
		Run:   runA2,
	})
}

const (
	f2PerPacket = sim.Cycles(1500) // per-packet protocol processing
	f2AppChunk  = sim.Cycles(100)  // app work quantum
)

// f2Result is one configuration's measurements.
type f2Result struct {
	latency *metrics.Histogram
	appWork uint64 // completed app-work quanta (× f2AppChunk cycles of useful work)
	served  int
	faults  faultinject.Stats // injected-fault counters (zero when faults off)
}

// f2AppThreads starts two background application threads doing chunked work
// and returns a counter of completed chunks.
func f2AppThreads(m *machine.Machine, ptids []hwthread.PTID) *uint64 {
	var chunks uint64
	m.Core(0).RegisterNative("f2.app.work", func(c *core.Core, t *hwthread.Context) sim.Cycles {
		chunks++
		return f2AppChunk
	})
	prog := asm.MustAssemble("app", "main:\nloop:\n\tnative f2.app.work\n\tjmp loop")
	for _, p := range ptids {
		if err := m.Core(0).BindProgram(p, prog, "main"); err != nil {
			panic(err)
		}
		m.Core(0).BootStart(p)
	}
	return &chunks
}

// f2Arrivals schedules Poisson packet arrivals and returns the deliver-time
// slice.
func f2Arrivals(m *machine.Machine, nic *device.NIC, n int, meanGap float64, seed uint64) ([]sim.Cycles, sim.Cycles) {
	rng := sim.NewRNG(seed)
	arr := workload.NewPoissonArrivals(meanGap, rng)
	times := make([]sim.Cycles, n)
	at := sim.Cycles(1000)
	var last sim.Cycles
	for i := 0; i < n; i++ {
		at += arr.Next()
		i := i
		m.Shard(0).At(at, "pkt", func() {
			times[i] = nic.Deliver([]int64{int64(i)})
		})
		last = at
	}
	return times, last
}

// runF2Mwait measures the mwait-service-thread configuration at one load.
// This is the fault-aware path: with RunConfig.Faults set, the machine takes
// delayed/dropped DMA completions and spurious wakes, and the service thread
// must still serve every packet (the engine's re-arm and redelivery paths).
func runF2Mwait(cfg RunConfig, n int, meanGap float64, horizon sim.Cycles, appPtids []hwthread.PTID) (*f2Result, error) {
	m := cfg.NewMachine()
	k := kernel.NewNocs(m.Core(0))
	nic := f1NIC(m, device.Signal{})
	r := &f2Result{latency: metrics.NewHistogram()}
	var times []sim.Cycles
	if _, err := k.ServeDevice("rx", nic.TailAddr(), 0x300008, f2PerPacket,
		func(seq int64, at sim.Cycles) {
			if int(seq) < len(times) && times[seq] > 0 {
				r.latency.RecordCycles(at - times[seq])
				r.served++
			}
		}); err != nil {
		return nil, err
	}
	chunks := f2AppThreads(m, appPtids)
	times, _ = f2Arrivals(m, nic, n, meanGap, cfg.Seed)
	m.RunUntil(horizon)
	if m.Fatal() != nil {
		return nil, m.Fatal()
	}
	r.appWork = *chunks
	r.faults = m.FaultInjector().Stats()
	return r, nil
}

// runF2Interrupt measures the interrupt-driven configuration at one load.
func runF2Interrupt(cfg RunConfig, n int, meanGap float64, horizon sim.Cycles, appPtids []hwthread.PTID) (*f2Result, error) {
	m := machine.New()
	nic := f1NIC(m, device.Signal{IRQ: m.IRQ(), Vector: 33})
	r := &f2Result{latency: metrics.NewHistogram()}
	var times []sim.Cycles
	head := int64(0)
	entry := m.IRQ().Costs().Entry
	// The victim is app thread 1: interrupts steal from the app.
	m.IRQ().Register(33, m.Core(0), appPtids[0], func(v irq.Vector, at sim.Cycles) sim.Cycles {
		tail := m.Mem().Read(nic.TailAddr())
		var cost sim.Cycles
		for seq := head; seq < tail; seq++ {
			cost += f2PerPacket
			if int(seq) < len(times) && times[seq] > 0 {
				r.latency.RecordCycles(at + entry + cost - times[seq])
				r.served++
			}
		}
		head = tail
		m.Mem().Write(0x300008, tail, 0)
		return cost
	})
	chunks := f2AppThreads(m, appPtids)
	times, _ = f2Arrivals(m, nic, n, meanGap, cfg.Seed)
	m.RunUntil(horizon)
	r.appWork = *chunks
	return r, nil
}

// runF2Polling measures the dedicated-polling-thread configuration at one
// load.
func runF2Polling(cfg RunConfig, n int, meanGap float64, horizon sim.Cycles, appPtids []hwthread.PTID) (*f2Result, error) {
	m := machine.New()
	nic := f1NIC(m, device.Signal{})
	r := &f2Result{latency: metrics.NewHistogram()}
	var times []sim.Cycles
	lastSeen := int64(0)
	m.Core(0).RegisterNative("f2.poll", func(c *core.Core, t *hwthread.Context) sim.Cycles {
		tail := c.ReadWord(nic.TailAddr())
		var cost sim.Cycles
		for seq := lastSeen; seq < tail; seq++ {
			cost += f2PerPacket
			if int(seq) < len(times) && times[seq] > 0 {
				r.latency.RecordCycles(c.Now() + cost - times[seq])
				r.served++
			}
		}
		lastSeen = tail
		c.WriteWord(0x300008, tail) // publish head for NIC flow control
		t.Regs.GPR[3] = tail
		return cost
	})
	poll := asm.MustAssemble("poll", `
main:
poll:
	ld r2, [r1+0]
	beq r2, r3, poll
	native f2.poll
	jmp poll
`)
	m.Core(0).BindProgram(0, poll, "main")
	m.Core(0).Threads().Context(0).Regs.GPR[1] = nic.TailAddr()
	m.Core(0).BootStart(0)
	chunks := f2AppThreads(m, appPtids)
	times, _ = f2Arrivals(m, nic, n, meanGap, cfg.Seed)
	m.RunUntil(horizon)
	r.appWork = *chunks
	return r, nil
}

func runF2(cfg RunConfig) (*Result, error) {
	n := 400
	if cfg.Quick {
		n = 60
	}
	loads := []float64{0.2, 0.5, 0.8}
	appPtids := []hwthread.PTID{1, 2}
	mechs := []struct {
		name string
		run  func(cfg RunConfig, n int, meanGap float64, horizon sim.Cycles, appPtids []hwthread.PTID) (*f2Result, error)
	}{
		{"interrupt", runF2Interrupt},
		{"polling", runF2Polling},
		{"mwait", runF2Mwait},
	}

	// Each (load, mechanism) cell boots a private machine, so the grid runs
	// point-parallel under ForEachPoint; cells land in index-addressed slots
	// and the table below reads them in fixed order.
	results := make([]*f2Result, len(loads)*len(mechs))
	err := ForEachPoint(cfg, len(results), func(pt int) error {
		load := loads[pt/len(mechs)]
		mech := mechs[pt%len(mechs)]
		meanGap := float64(f2PerPacket) / load
		horizon := sim.Cycles(1000 + float64(n+20)*meanGap + 2e5)
		r, err := mech.run(cfg, n, meanGap, horizon, appPtids)
		if err != nil {
			return err
		}
		results[pt] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("packet latency and co-located app throughput (2 app threads, 2 SMT slots)",
		"load", "mechanism", "served", "p50 lat", "p99 lat", "app kcycles of work")
	for li, load := range loads {
		for mi, mech := range mechs {
			r := results[li*len(mechs)+mi]
			p50, p99, _, _ := r.latency.Summary()
			t.Row(load, mech.name, r.served, p50, p99, float64(r.appWork*uint64(f2AppChunk))/1000)
		}
	}
	res := &Result{Tables: []*metrics.Table{t}}
	if cfg.Faults != nil {
		var agg faultinject.Stats
		for _, r := range results {
			agg.Add(r.faults)
		}
		res.Notes = append(res.Notes,
			"fault injection armed on the mwait cells: "+agg.String()+" — served counts above include faulted runs")
	}
	res.Notes = append(res.Notes,
		"mwait gives polling-class latency at low/mid load and the best app throughput at every load",
		"polling's app-throughput deficit is the dedicated core the paper says it wastes",
		"at very high load a dedicated service thread pays SMT sharing against the app threads (3 threads on 2 slots) while the IRQ handler borrows the victim's slot — more slots or hardware priorities (F9) recover the mwait latency win")
	return res, nil
}

func runA2(cfg RunConfig) (*Result, error) {
	n := 60
	if cfg.Quick {
		n = 20
	}

	type outcome struct {
		served  int
		dropped uint64
		p50     int64
	}
	run := func(dmaVisible, irqFallback bool) (outcome, error) {
		m := machine.New(machine.WithDMAMonitorVisible(dmaVisible))
		k := kernel.NewNocs(m.Core(0))
		sig := device.Signal{}
		if irqFallback {
			sig = device.Signal{IRQ: m.IRQ(), Vector: 33}
		}
		nic := f1NIC(m, sig)
		h := metrics.NewHistogram()
		served := 0
		var times []sim.Cycles
		if _, err := k.ServeDevice("rx", nic.TailAddr(), 0x300008, 30,
			func(seq int64, at sim.Cycles) {
				if int(seq) < len(times) && times[seq] > 0 {
					h.RecordCycles(at - times[seq])
					served++
				}
			}); err != nil {
			return outcome{}, err
		}
		if irqFallback {
			head := int64(0)
			entry := m.IRQ().Costs().Entry
			if err := m.IRQ().Register(33, m.Core(0), 0, func(v irq.Vector, at sim.Cycles) sim.Cycles {
				tail := m.Mem().Read(nic.TailAddr())
				var cost sim.Cycles
				for seq := head; seq < tail; seq++ {
					cost += 30
					if int(seq) < len(times) && times[seq] > 0 {
						h.RecordCycles(at + entry + cost - times[seq])
						served++
					}
				}
				head = tail
				m.Mem().Write(0x300008, tail, 0)
				return cost
			}); err != nil {
				return outcome{}, err
			}
		}
		times = deliverTrain(m, nic, n)
		m.RunUntil(sim.Cycles(n+4) * f1Spacing)
		return outcome{served: served, dropped: m.Monitor().Counters().Dropped, p50: h.Quantile(0.5)}, nil
	}

	visible, err := run(true, false)
	if err != nil {
		return nil, err
	}
	invisible, err := run(false, false)
	if err != nil {
		return nil, err
	}
	fallback, err := run(false, true)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("mwait RX thread with and without DMA-visible monitoring",
		"config", "events served", "monitor writes dropped", "p50 latency")
	t.Row("DMA visible (paper hardware)", visible.served, visible.dropped, visible.p50)
	t.Row("DMA invisible (today's x86)", invisible.served, invisible.dropped, invisible.p50)
	t.Row("DMA invisible + IRQ fallback", fallback.served, fallback.dropped, fallback.p50)

	res := &Result{Tables: []*metrics.Table{t}}
	if invisible.served != 0 {
		return nil, fmt.Errorf("A2: invisible-DMA config served %d events, want 0", invisible.served)
	}
	res.Notes = append(res.Notes,
		"without DMA-visible monitoring the mwait thread sleeps through every packet; the IRQ fallback works but pays the interrupt path")
	return res, nil
}
