package main

import (
	"math"
	"os"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 7, 1.25, 9, 3, 3, 8}, 2.5, 3, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianPercentileAndCounts(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median(xs[:5]); got != 7 { // 9 1 8 2 7
		t.Errorf("odd median = %g, want 7", got)
	}
	// Nearest rank: the p90 of ten samples is the ninth smallest.
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	if got := percentile(xs[:1], 90); got != 9 {
		t.Errorf("p90 of one sample = %g, want that sample", got)
	}
	if xs[0] != 9 {
		t.Error("aggregation reordered its input")
	}
	s := summarize(xs)
	if s.N != 10 || s.Median != 5.5 || s.P90 != 9 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v, want no samples", s)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", got)
	}
}

func TestSamplesAndCountsPerPass(t *testing.T) {
	r := newRun(1)
	r.sample("x", 1)
	r.tracing = true
	r.sample("x", 100)
	if got := len(r.samples["x"]); got != 1 {
		t.Fatalf("untraced series has %d samples, want 1: traced samples must not mix in", got)
	}
	if got := r.samples["traced.x"]; len(got) != 1 || got[0] != 100 {
		t.Fatalf("traced series = %v", got)
	}

	r = newRun(1)
	for pass := 0; pass < 3; pass++ {
		r.count("events", 10)
		r.count("events", 5) // count adds within a pass
		r.setCount("hash", 42)
		r.endPass()
	}
	if r.counts["events"] != 15 || r.failed != 0 || r.attempted != 2 {
		t.Fatalf("counts %v, attempted %d, failed %d; want events=15 and two clean pass checks",
			r.counts, r.attempted, r.failed)
	}
	r.count("events", 16)
	r.setCount("hash", 42)
	r.endPass()
	if r.failed != 1 || r.attempted != 3 {
		t.Fatalf("a count that moved between passes gave attempted %d failed %d, want 3 and 1", r.attempted, r.failed)
	}
}

func TestCrossRunCountCheck(t *testing.T) {
	dir := t.TempDir()
	digest := "0123456789abcdef0123"
	first := newRun(7)
	first.setCount("sim.events", 100)
	first.endPass()
	first.crossRunCheck(dir, digest, "w")
	if first.attempted != 0 {
		t.Fatalf("the first run of a seed only records its counts; attempted %d", first.attempted)
	}

	same := newRun(7)
	same.setCount("sim.events", 100)
	same.endPass()
	same.crossRunCheck(dir, digest, "w")
	if same.attempted != 1 || same.failed != 0 {
		t.Fatalf("repeat run: attempted %d failed %d, want 1 and 0", same.attempted, same.failed)
	}

	moved := newRun(7)
	moved.setCount("sim.events", 101)
	moved.endPass()
	moved.crossRunCheck(dir, digest, "w")
	if moved.failed != 1 {
		t.Fatalf("a count that changed between runs of one seed was not failed: %v", moved.failures)
	}

	other := newRun(8) // another seed has its own record
	other.setCount("sim.events", 5)
	other.endPass()
	other.crossRunCheck(dir, digest, "w")
	if other.failed != 0 {
		t.Fatalf("seed 8 compared against seed 7: %v", other.failures)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWatchRSSSeesAllocation(t *testing.T) {
	if got := residentMB([]byte("1000 250 30 4 0 60 0\n")); !near(got, 250*float64(os.Getpagesize())/1e6) {
		t.Fatalf("residentMB = %g", got)
	}
	w := watchRSS()
	block := make([]byte, 64<<20)
	for i := 0; i < len(block); i += 4096 {
		block[i] = 1 // touch every page so it is resident
	}
	f := w.figures()
	if f.peak < 64 {
		t.Fatalf("peak resident set %.1f MB while 64 MiB were touched", f.peak)
	}
	if f.mean <= 0 || f.mean > f.peak {
		t.Fatalf("mean resident set %.1f MB, peak %.1f MB", f.mean, f.peak)
	}
	block[0] = 2
}
