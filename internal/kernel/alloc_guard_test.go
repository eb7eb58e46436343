package kernel

import (
	"testing"

	"nocs/internal/sim"
	"nocs/internal/workload"
)

// steadyBatch submits one deterministic batch of n requests via SubmitAll and
// drains the engine. Arrival times advance from the engine's current time so
// successive batches replay the same pattern.
func steadyBatch(eng *sim.Shard, srv interface {
	SubmitAll([]workload.Request)
}, reqs []workload.Request, n int) {
	base := eng.Now() + 1
	for i := 0; i < n; i++ {
		reqs[i] = workload.Request{
			ID:      int(base) + i,
			Arrival: base + sim.Cycles(i*37),
			Demand:  sim.Cycles(50 + (i%7)*100),
		}
	}
	srv.SubmitAll(reqs[:n])
	eng.Run(0)
}

// TestServersSteadyStateAllocBound pins the zero-alloc queueing rework: once
// a server's pools are warm (ring capacity, request/callback freelists, PS
// active slice), a whole batch of requests costs only the SubmitAll arrival
// stream — a handful of allocations per batch, not per request. The old
// closure-per-event design allocated 4–6 objects per request; a regression
// back to that shape trips the per-batch bound immediately.
func TestServersSteadyStateAllocBound(t *testing.T) {
	const n = 200
	// Per-batch allocation budget: the arrival stream and its request list
	// (two allocations) plus two of slack. The PS active set is a slice
	// compacted in place, so it needs no allocation once warm.
	const budget = 4.0

	cases := []struct {
		name  string
		build func(eng *sim.Shard) interface {
			SubmitAll([]workload.Request)
		}
	}{
		{"fcfs", func(eng *sim.Shard) interface {
			SubmitAll([]workload.Request)
		} {
			return NewFCFS(eng, 4, 10, nil)
		}},
		{"ps", func(eng *sim.Shard) interface {
			SubmitAll([]workload.Request)
		} {
			return NewPS(eng, 4, 10, nil)
		}},
		{"timeslice", func(eng *sim.Shard) interface {
			SubmitAll([]workload.Request)
		} {
			return NewTimeslice(eng, 4, 100, 5, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.SoloShard(sim.NewEngine(nil))
			srv := tc.build(eng)
			reqs := make([]workload.Request, n)
			steadyBatch(eng, srv, reqs, n) // warmup: grow rings, pools, heap
			allocs := testing.AllocsPerRun(10, func() {
				steadyBatch(eng, srv, reqs, n)
			})
			if allocs > budget {
				t.Fatalf("%s steady-state batch of %d requests allocates %.1f, want ≤ %.0f",
					tc.name, n, allocs, budget)
			}
		})
	}
}
