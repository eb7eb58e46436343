package bench

import (
	"fmt"
	"runtime"
	"time"

	"nocs/internal/metrics"
	"nocs/internal/serve"
)

// SV1 — datacenter-scale serving scenarios (DESIGN.md §15). Each cell of
// the sweep grid is one multi-tier serving cluster from internal/serve: an
// LB tier fanning requests out over the netstack to a pool of app servers
// (thread-per-request on the PR-9 lock primitives, nocs vs legacy flavor)
// backed by a storage tier. The grid crosses offered load — including
// deliberate overload — with Poisson and bursty Pareto arrivals, and every
// cell runs twice: once on the serial oracle and once sharded, with
// byte-identity of the full observable state required before any number is
// reported. The conservation invariant (generated == completed + refused +
// in-flight) is audited inside serve.Run on every chunk.
//
// SV1 is deliberately NOT in the experiment registry: `-all` output (the
// golden file) is unchanged. Run it with `nocsim -serve`.

// ServeConfig sizes the SV1 sweep.
type ServeConfig struct {
	// Loads are the offered-load points (fraction of pool capacity; values
	// above 1 are deliberate overload).
	Loads []float64
	// Arrivals are the interarrival processes to sweep.
	Arrivals []string
	// Flavors are the threading models to sweep.
	Flavors []string
	// Conns is the connection count per cell.
	Conns int
	// ReqsPerConn is the requests each connection issues.
	ReqsPerConn int
	// AppServers is the app-server pool size.
	AppServers int
	// Slots is the worker-thread count per app server.
	Slots int
	// Workers is the worker-goroutine count for the sharded run.
	Workers int
}

// DefaultServeConfig returns the standard SV1 sweep — 10^5 connections per
// cell across load {0.5, 0.8, 0.95, 1.1, 1.3} × {poisson, pareto} ×
// {nocs, legacy} — or a CI-sized one when quick is set.
func DefaultServeConfig(quick bool) ServeConfig {
	sc := ServeConfig{
		Loads:    []float64{0.5, 0.8, 0.95, 1.1, 1.3},
		Arrivals: []string{serve.ArrivalPoisson, serve.ArrivalPareto},
		Flavors:  []string{serve.FlavorNocs, serve.FlavorLegacy},
		Conns:    100_000,
		Workers:  runtime.GOMAXPROCS(0),
	}
	if quick {
		// One saturated and one overload point keep the smoke run honest:
		// the refusal path must still fire.
		sc.Loads = []float64{0.8, 1.3}
		sc.Conns = 3000
	}
	return sc
}

func (sc *ServeConfig) fill() {
	if len(sc.Loads) == 0 {
		sc.Loads = []float64{0.8}
	}
	if len(sc.Arrivals) == 0 {
		sc.Arrivals = []string{serve.ArrivalPoisson}
	}
	if len(sc.Flavors) == 0 {
		sc.Flavors = []string{serve.FlavorNocs}
	}
	if sc.Conns <= 0 {
		sc.Conns = 100_000
	}
	if sc.ReqsPerConn <= 0 {
		sc.ReqsPerConn = 2
	}
	if sc.AppServers <= 0 {
		sc.AppServers = 8
	}
	if sc.Slots <= 0 {
		sc.Slots = 2
	}
	if sc.Workers <= 0 {
		sc.Workers = runtime.GOMAXPROCS(0)
	}
}

// ServeCellStats is one grid cell's machine-readable result, consumed by
// scripts/bench.sh for BENCH_6.json.
type ServeCellStats struct {
	Load            float64
	Arrival, Flavor string
	serve.Stats
	Hash uint64
}

// RunServe executes the SV1 sweep. Every cell runs under the serial oracle
// and then sharded; it fails (rather than report a number) if the two runs'
// summaries differ in any byte, if conservation breaks, or if no overload
// cell ever refused a request.
func RunServe(cfg RunConfig, sc ServeConfig) (*Result, []ServeCellStats, error) {
	sc.fill()

	var cells []ServeCellStats
	var overloadRefused uint64
	for _, flavor := range sc.Flavors {
		for _, arrival := range sc.Arrivals {
			for _, load := range sc.Loads {
				base := serve.Config{
					AppServers:  sc.AppServers,
					Slots:       sc.Slots,
					Conns:       sc.Conns,
					ReqsPerConn: sc.ReqsPerConn,
					Load:        load,
					Arrival:     arrival,
					Flavor:      flavor,
					Seed:        cfg.Seed,
				}
				cell := fmt.Sprintf("%s/%s/%.2f", flavor, arrival, load)

				var st serve.Stats
				run := func(_, workers int) (string, time.Duration, error) {
					c := base
					c.Workers = workers
					cl, err := serve.New(c)
					if err != nil {
						return "", 0, err
					}
					if err := cl.Run(); err != nil {
						return "", 0, err
					}
					st = cl.CollectStats()
					return cl.Summary(), 0, nil
				}
				// serve.New gives every core its own shard; only the worker
				// count differs between the oracle and the sharded run.
				shards := sc.AppServers + 2
				hash, _, _, err := verifySharded("SV1 "+cell, run,
					[2]int{shards, 1}, [2]int{shards, sc.Workers})
				if err != nil {
					return nil, nil, err
				}
				if st.Generated != st.Completed+st.Refused {
					return nil, nil, fmt.Errorf("SV1 %s: conservation broke after drain — generated %d != completed %d + refused %d",
						cell, st.Generated, st.Completed, st.Refused)
				}
				if st.Completed == 0 {
					return nil, nil, fmt.Errorf("SV1 %s: degenerate cell — nothing completed", cell)
				}
				if load > 1 {
					overloadRefused += st.Refused
				}
				cells = append(cells, ServeCellStats{
					Load: load, Arrival: arrival, Flavor: flavor,
					Stats: st, Hash: hash,
				})
			}
		}
	}
	if overloadRefused == 0 {
		return nil, nil, fmt.Errorf("SV1: no overload cell refused a request — admission control never engaged across the sweep")
	}

	t := metrics.NewTable(
		fmt.Sprintf("serving cell: %d conns × %d reqs, %d app servers × %d threads, serial-vs-sharded byte-identical per cell",
			sc.Conns, sc.ReqsPerConn, sc.AppServers, sc.Slots),
		"flavor", "arrival", "load", "done", "refused", "p99", "p999", "goodput kr/Gcyc", "lock waits")
	for _, c := range cells {
		t.Row(c.Flavor, c.Arrival, c.Load, c.Completed, c.Refused, c.P99, c.P999,
			c.GoodputKRPS, c.LockWaits)
	}

	res := &Result{
		ID:     "SV1",
		Title:  "datacenter-scale serving scenarios",
		Claim:  "a serving cell built on nocs threads degrades gracefully under overload; the legacy flavor's tail collapses first",
		Tables: []*metrics.Table{t},
		Notes: []string{
			fmt.Sprintf("%d cells, each byte-identical between the serial oracle and the sharded scheduler", len(cells)),
			"conservation (generated == completed + refused + in-flight) audited every chunk of every run",
			fmt.Sprintf("overload cells refused %d requests through the admission window — the backpressure path, not a drop counter", overloadRefused),
		},
	}
	return res, cells, nil
}
