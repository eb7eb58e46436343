package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttributeInnermostLayer(t *testing.T) {
	stacks := [][]string{
		// Map access inside the PS server: charged to kernel.
		{"runtime.mapaccess1", "nocs/internal/kernel.(*PSServer).advance", "nocs/internal/sim.(*Engine).Step", "main.main"},
		// Engine code called from the kernel: sim is innermost.
		{"nocs/internal/sim.(*Engine).siftDown", "nocs/internal/kernel.(*PSServer).reschedule"},
		// A subpackage counts as its module.
		{"nocs/internal/refmodel/diff.Compare"},
		// perfbench code with no nocs frame inside it.
		{"bytes.Equal", "main.(*ckptRing).roundTrip", "main.main"},
		// GC worker: nothing of the repository on the stack.
		{"runtime.gcBgMarkWorker"},
	}
	got := attribute(stacks, []int64{3, 1, 1, 2, 3})
	want := map[string]float64{"kernel": 0.3, "sim": 0.1, "refmodel": 0.1, "perfbench": 0.2, "runtime": 0.3}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s share = %g, want %g", k, got[k], v)
		}
	}
}

//go:noinline
func spinFor(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinFor(300 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatal("no samples in a 300 ms busy loop")
	}
	found := false
	for _, s := range stacks {
		for _, fn := range s {
			if fn == "nocs/perfbench.spinFor" || fn == "main.spinFor" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample names spinFor; first stack %v", stacks[0])
	}
	for _, w := range weights {
		if w < 1 {
			t.Fatalf("sample weight %d, want at least 1", w)
		}
	}
	if _, _, err := parseProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}
