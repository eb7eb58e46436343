package main

import (
	"testing"
	"time"
)

func TestCalibrationChunkIsDeterministicAndAllocationFree(t *testing.T) {
	c := newCalibrator()
	c.chunk()
	first := c.sink
	c.chunk()
	if c.sink != 2*first {
		t.Fatalf("second chunk left %d, want the first's %d again", c.sink-first, first)
	}
	if allocs := testing.AllocsPerRun(2, func() { c.chunk() }); allocs != 0 {
		t.Fatalf("a calibration chunk allocates %g times", allocs)
	}
	if total, steady := c.chunk(); steady <= 0 || total <= 0 {
		t.Fatalf("chunk times %v total, %v steady", total, steady)
	}
}

// finish scales each unit by the median chunk time around it, so a host
// running at half the reference speed halves every time, and one slow
// chunk next to a unit does not move its scaled time.
func TestFinishScalesUnitsByNearbyChunks(t *testing.T) {
	r := newRun(1)
	slow := 2 * calibRefS
	r.chunks = []float64{slow, slow, slow, 10 * slow, slow, slow, slow}
	// Set-up times are scaled by the steady times: a host at a quarter of
	// the reference speed between preemptions.
	r.steady = []float64{4 * calibRefS, 4 * calibRefS, 4 * calibRefS, 4 * calibRefS, 4 * calibRefS, 4 * calibRefS, 4 * calibRefS}
	r.units = []unitRec{
		{wall: 1.0, chunk: 3, pass: 0, seq: 0},
		{wall: 0.5, chunk: 4, pass: 0, seq: 1, setup: true},
		{wall: 0.002, chunk: 1, pass: -1, setup: true},
		{wall: 1.2, chunk: 3, pass: 1, seq: 0},
		{wall: 0.4, chunk: 4, pass: 1, seq: 1, setup: true},
	}
	r.passes = 2
	r.finish()
	want := map[string][]float64{
		"unit.000": {0.5, 0.6},
		"unit.001": {0.25, 0.2},
		"setup_s":  {0.125, 0.0005, 0.1},
	}
	for k, xs := range want {
		got := r.samples[k]
		if len(got) != len(xs) {
			t.Fatalf("%s = %v, want %v", k, got, xs)
		}
		for i := range xs {
			if !near(got[i], xs[i]) {
				t.Errorf("%s = %v, want %v", k, got, xs)
				break
			}
		}
	}
	// The pass time is the sum of the units' medians: (0.5+0.6)/2 + (0.25+0.2)/2.
	if got := scaledPass(r); !near(got, 0.775) {
		t.Errorf("scaledPass = %g, want 0.775", got)
	}
}

// A pass records one unit per call, numbered within the pass, and runs a
// calibration chunk before its first unit and after its last.
func TestPassUnitsAndChunks(t *testing.T) {
	r := newRun(1)
	chunks := 0
	r.calib = func() (time.Duration, time.Duration) {
		chunks++
		ref := time.Duration(calibRefS * float64(time.Second))
		return ref, ref
	}
	w := &fixedUnits{n: 3}
	onePass(r, w)
	onePass(r, w)
	if chunks != 3 {
		t.Errorf("two passes ran %d chunks, want 3 (one before, one after each pass)", chunks)
	}
	r.finish()
	for _, k := range []string{"unit.000", "unit.001", "unit.002"} {
		if len(r.samples[k]) != 2 {
			t.Errorf("%s has %d samples, want one per pass", k, len(r.samples[k]))
		}
	}
	if r.samples["unit.003"] != nil {
		t.Errorf("unit numbering did not restart with the second pass")
	}
}

type fixedUnits struct{ n int }

func (f *fixedUnits) setup(*run) error                { return nil }
func (f *fixedUnits) metrics(*run) map[string]float64 { return nil }
func (f *fixedUnits) pass(r *run, parent int) {
	for i := 0; i < f.n; i++ {
		r.unit("u", parent, func() { time.Sleep(time.Millisecond) })
	}
}
