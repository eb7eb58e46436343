package main

import (
	"fmt"
	"regexp"
	"strconv"
	"time"

	"nocs/internal/machine"
	"nocs/internal/serve"
	"nocs/internal/sim"
)

// serveGrid runs the SV1 quick grid: loads {0.8, 1.3} × {poisson, pareto}
// × {nocs, legacy} at conns connections per cell (3000 is
// bench.DefaultServeConfig's quick sizing). Every cell is built with
// serve.New and run with Cluster.Run twice, on the serial oracle and
// sharded; the two summaries must match byte for byte, and Run itself
// audits conservation every chunk and the drain at the end.
type serveGrid struct {
	conns int
}

var (
	serveLoads    = []float64{0.8, 1.3}
	serveArrivals = []string{serve.ArrivalPoisson, serve.ArrivalPareto}
	serveFlavors  = []string{serve.FlavorNocs, serve.FlavorLegacy}
)

// setup times bare machine construction at the cell's topology (ten cores,
// one shard each), the machine part of what serve.New builds.
func (g *serveGrid) setup(r *run) error {
	const cores = 10 // serve.Config's default 8 app servers, plus LB and storage
	for i := 0; i < machineProbes/10; i++ {
		t0 := time.Now()
		m := machine.New(machine.WithCores(cores), machine.WithShards(cores),
			machine.WithWorkers(r.workers), machine.WithSMTSlots(2))
		r.sample("machine.build_ms", float64(time.Since(t0).Nanoseconds())/1e6)
		if m.Shards() != cores {
			return fmt.Errorf("serve topology built %d shards", m.Shards())
		}
	}
	return nil
}

var (
	storeRe = regexp.MustCompile(`store=(\d+)/(\d+)/(\d+)/(\d+)/(\d+)`)
	stackRe = regexp.MustCompile(`recv=(\d+) drop=(\d+) sent=(\d+)`)
)

// cellRun is one drained cell.
type cellRun struct {
	cl      *serve.Cluster
	summary string
	run     time.Duration
}

func (g *serveGrid) pass(r *run, parent int) {
	var serialRun, shardedRun time.Duration
	var events, instrs, requests, refusedOverload uint64
	for _, flavor := range serveFlavors {
		var p99 int64
		for _, arrival := range serveArrivals {
			for _, load := range serveLoads {
				cell := fmt.Sprintf("%s/%s/%.2f", flavor, arrival, load)
				cfg := serve.Config{Conns: g.conns, Load: load, Arrival: arrival, Flavor: flavor, Seed: r.seed, Workers: 1}

				ser, ok := g.runCell(r, parent, cell+" serial", cfg)
				if !ok {
					continue
				}
				st := ser.cl.CollectStats()
				m := ser.cl.Machine()
				serialRun += ser.run
				events += m.Scheduler().Ran()
				instrs += m.Retired()
				requests += st.Completed + st.Refused
				g.countCell(r, flavor, ser, st)
				if st.P99 > p99 {
					p99 = st.P99
				}
				if load > 1 {
					refusedOverload += st.Refused
				}
				r.check(st.Generated == st.Completed+st.Refused && st.Completed > 0,
					"cell %s: generated %d, completed %d, refused %d", cell, st.Generated, st.Completed, st.Refused)

				cfg.Workers = r.workers
				par, ok := g.runCell(r, parent, cell+" sharded", cfg)
				if !ok {
					continue
				}
				shardedRun += par.run
				r.sample("shard_speedup", ser.run.Seconds()/par.run.Seconds())
				compareCell(r, cell, ser, par)
			}
		}
		r.setCount("serve."+flavor+".p99_cycles", uint64(p99))
	}
	r.check(refusedOverload > 0, "no overload cell refused a request")
	r.sample("serve.cell_serial_s", serialRun.Seconds())
	r.sample("serve.cell_sharded_s", shardedRun.Seconds())
	r.sample("sim_events_per_s", float64(events)/serialRun.Seconds())
	r.sample("sim_instrs_per_s", float64(instrs)/serialRun.Seconds())
	r.sample("sim_requests_per_s", float64(requests)/serialRun.Seconds())
}

// runCell builds and runs one cell: one checked operation. The build is a
// set-up unit.
func (g *serveGrid) runCell(r *run, parent int, name string, cfg serve.Config) (cellRun, bool) {
	var cl *serve.Cluster
	var d time.Duration
	var err error
	r.setupUnit("build "+name, parent, func() { cl, err = serve.New(cfg) })
	if err == nil {
		d = r.unit("run "+name, parent, func() { err = cl.Run() })
	}
	if !r.checkErr(err, "cell "+name) {
		return cellRun{}, false
	}
	return cellRun{cl: cl, summary: cl.Summary(), run: d}, true
}

// compareCell checks a sharded cell against its serial oracle: the same
// summary, byte for byte, and the same number of events executed.
func compareCell(r *run, cell string, ser, par cellRun) {
	r.check(par.summary == ser.summary, "cell %s: sharded summary differs from the serial oracle (%016x vs %016x)",
		cell, hash64(par.summary), hash64(ser.summary))
	se, pe := ser.cl.Machine().Scheduler().Ran(), par.cl.Machine().Scheduler().Ran()
	r.check(se == pe, "cell %s: sharded run executed %d events, serial %d", cell, pe, se)
}

// countCell adds a serial cell's exact counts: simulator events and
// instructions, monitor wakes over every shard, and the state-store and
// netstack counters the cell's summary prints.
func (g *serveGrid) countCell(r *run, flavor string, c cellRun, st serve.Stats) {
	m, summary := c.cl.Machine(), c.summary
	r.count("sim.events", m.Scheduler().Ran())
	r.count("core.instrs", m.Retired())
	for s := 0; s < m.Shards(); s++ {
		wakeups, immediate, dropped := m.MonitorOf(sim.ShardID(s)).Stats()
		r.count("monitor.wakeups", wakeups)
		r.count("monitor.immediate", immediate)
		r.count("monitor.dropped", dropped)
	}
	for _, f := range storeRe.FindAllStringSubmatch(summary, -1) {
		r.count("statestore.promotions", atou(f[1]))
		r.count("statestore.demotions", atou(f[2]))
	}
	r.count("statestore.dram_starts", st.DRAMStarts)
	for _, f := range stackRe.FindAllStringSubmatch(summary, -1) {
		r.count("netstack.received", atou(f[1]))
		r.count("netstack.dropped", atou(f[2]))
		r.count("netstack.sent", atou(f[3]))
	}
	r.count("serve."+flavor+".completed", st.Completed)
	r.count("serve."+flavor+".refused", st.Refused)
	r.count("summary_hash", hash64(summary)) // sum of hashes: a fingerprint of every cell
}

func atou(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64) // the regexp matched digits only
	return v
}

func (g *serveGrid) metrics(r *run) map[string]float64 {
	out := map[string]float64{
		"sim_events_per_s":     median(r.samples["sim_events_per_s"]),
		"sim_instrs_per_s":     median(r.samples["sim_instrs_per_s"]),
		"sim_requests_per_s":   median(r.samples["sim_requests_per_s"]),
		"sim.shard_speedup":    median(r.samples["shard_speedup"]),
		"serve.cell_serial_s":  median(r.samples["serve.cell_serial_s"]),
		"serve.cell_sharded_s": median(r.samples["serve.cell_sharded_s"]),
	}
	addCounts(r, out)
	return out
}
