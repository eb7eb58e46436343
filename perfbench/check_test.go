package main

import (
	"os"
	"testing"

	"nocs/internal/bench"
	"nocs/internal/serve"
)

// Each test plants one output mismatch of the kind the benchmark checks
// and requires the failed-operation count to rise, after a clean control
// run that must not fail.

func TestGoldenMismatchFails(t *testing.T) {
	data, err := os.ReadFile("../" + goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	golden := splitGolden(string(data))
	for _, id := range bench.IDs() {
		if _, ok := golden[id]; !ok {
			t.Fatalf("golden file has no block for %s", id)
		}
	}

	p := &paperSuite{ids: []string{"T1"}, golden: golden}
	r := newRun(goldenSeed)
	p.pass(r, -1)
	if r.failed != 0 || r.attempted != 1 {
		t.Fatalf("clean T1 at the golden seed: attempted %d failed %d %v", r.attempted, r.failed, r.failures)
	}

	corrupt := map[string]string{"T1": golden["T1"][:len(golden["T1"])-2] + "x\n"}
	p = &paperSuite{ids: []string{"T1"}, golden: corrupt}
	r = newRun(goldenSeed)
	p.pass(r, -1)
	if r.failed != 1 {
		t.Fatalf("corrupted golden block: failed %d, want 1", r.failed)
	}
}

func TestAlteredCellSummaryFails(t *testing.T) {
	g := &serveGrid{conns: 200}
	r := newRun(3)
	cfg := serve.Config{Conns: g.conns, Load: 0.8, Arrival: serve.ArrivalPoisson, Flavor: serve.FlavorNocs, Seed: r.seed, Workers: 1}
	ser, ok := g.runCell(r, -1, "serial", cfg)
	if !ok {
		t.Fatal(r.failures)
	}
	cfg.Workers = 2
	par, ok := g.runCell(r, -1, "sharded", cfg)
	if !ok {
		t.Fatal(r.failures)
	}
	compareCell(r, "cell", ser, par)
	if r.failed != 0 {
		t.Fatalf("clean cell: %v", r.failures)
	}

	altered := par
	altered.summary = par.summary[:len(par.summary)-2] + "9\n"
	compareCell(r, "cell", ser, altered)
	if r.failed != 1 {
		t.Fatalf("altered sharded summary: failed %d, want 1", r.failed)
	}
}

func TestCheckpointRingAndFlippedByte(t *testing.T) {
	c := &ckptRing{cores: 4, horizon: 200_000, checkpoints: 3}
	r := newRun(5)
	if err := c.setup(r); err != nil {
		t.Fatal(err)
	}
	c.pass(r, -1)
	// Serial run; three sharded run chunks with their checkpoints, the last
	// chunk and the summary; three round trips; the mid-run restore's run
	// and summary.
	if r.failed != 0 || r.attempted != 14 {
		t.Fatalf("clean ring pass: attempted %d failed %d %v", r.attempted, r.failed, r.failures)
	}
	if r.passCounts["snapshot.bytes"] == 0 || r.passCounts["core.instrs"] == 0 {
		t.Fatalf("ring pass recorded no snapshot bytes or instructions: %v", r.passCounts)
	}

	m, ok := c.build(r, -1, 1)
	if !ok {
		t.Fatal(r.failures)
	}
	m.RunUntil(c.horizon / 2)
	ckpt, err := c.snapshot(r, -1, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.roundTrip(r, -1, 0, ckpt); !ok {
		t.Fatalf("clean checkpoint round trip failed: %v", r.failures)
	}
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/2] ^= 0x01
	before := r.failed
	if _, ok := c.roundTrip(r, -1, 1, flipped); ok || r.failed != before+1 {
		t.Fatalf("flipped checkpoint byte: ok=%v failed %d, want one more failure", ok, r.failed-before)
	}
}

func TestMicrobenchmarksRun(t *testing.T) {
	for _, mb := range micros {
		ns, allocs, err := mb.measure(0)
		if err != nil {
			t.Errorf("%s: %v", mb.ns, err)
			continue
		}
		if ns <= 0 {
			t.Errorf("%s = %g ns, want a positive time", mb.ns, ns)
		}
		if mb.zeroAlloc && allocs >= 1 {
			t.Errorf("%s claims a zero-alloc path but allocates %g per op", mb.ns, allocs)
		}
	}
}

// A per-layer name the spec does not list is silently dropped from the
// result, and a listed name nothing produces reads 0; both are typos this
// catches for the names the code spells out.
func TestSpecListsProducedNames(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range sp.PerLayer {
		listed[m.Name] = true
	}
	names := append([]string(nil), countMetrics...)
	for _, mb := range micros {
		names = append(names, mb.ns, mb.allocs)
	}
	for _, ns := range owned {
		names = append(names, ns...)
	}
	for _, n := range names {
		if !listed[n] {
			t.Errorf("%s is produced but not listed in BENCHMARK.json", n)
		}
	}
	for _, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which perfbench does not have", w.Name)
		}
	}
}
