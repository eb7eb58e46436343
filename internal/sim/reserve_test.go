package sim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reservedFeeder streams a batch of events the way a component using
// ReserveSeqs does: only the next event is queued, and it is scheduled
// under its reserved number before the current one runs.
type reservedFeeder struct {
	e    *Engine
	at   []Cycles
	seq  []uint64
	id   []int
	next int
	run  func(id int)
}

func (f *reservedFeeder) OnEvent() {
	cur := f.id[f.next]
	f.next++
	if f.next < len(f.at) {
		f.e.AtReservedCallback(f.at[f.next], f.seq[f.next], "batch", f)
	}
	f.run(cur)
}

type batchEvent struct {
	id  int
	run func(id int)
}

func (b *batchEvent) OnEvent() { b.run(b.id) }

// reservedScenario interleaves a batch of n events with unsorted, heavily
// tied timestamps between ordinary events scheduled before and after it;
// ordinary events spawn children that tie with batch events too. It logs
// every dispatch with the clock and the heap head seen by the event body.
// streamed selects ReserveSeqs + AtReservedCallback for the batch instead
// of one AtCallback per event up front.
func reservedScenario(seed uint64, streamed bool) []string {
	e := NewEngine(nil)
	rng := NewRNG(seed)
	var log []string
	note := func(what string) {
		head, _ := e.NextEventAt()
		log = append(log, fmt.Sprintf("%s now=%d head=%d", what, e.Now(), head))
	}
	var ordinary func(name string) func()
	ordinary = func(name string) func() {
		return func() {
			note(name)
			if rng.Intn(3) == 0 {
				e.After(Cycles(rng.Intn(20)), name+"'", ordinary(name+"'"))
			}
		}
	}
	for i := 0; i < 5; i++ {
		e.At(Cycles(rng.Intn(50)), "pre", ordinary(fmt.Sprintf("pre%d", i)))
	}

	const n = 60
	at := make([]Cycles, n)
	for i := range at {
		at[i] = Cycles(rng.Intn(25) * 4)
	}
	runBatch := func(id int) { note(fmt.Sprintf("batch%d", id)) }
	if streamed {
		first := e.ReserveSeqs(n)
		f := &reservedFeeder{e: e, run: runBatch}
		for i := range at {
			f.id = append(f.id, i)
		}
		sort.SliceStable(f.id, func(a, b int) bool { return at[f.id[a]] < at[f.id[b]] })
		for _, i := range f.id {
			f.at = append(f.at, at[i])
			f.seq = append(f.seq, first+uint64(i))
		}
		e.AtReservedCallback(f.at[0], f.seq[0], "batch", f)
	} else {
		for i := range at {
			e.AtCallback(at[i], "batch", &batchEvent{id: i, run: runBatch})
		}
	}

	for i := 0; i < 5; i++ {
		e.At(Cycles(rng.Intn(100)), "post", ordinary(fmt.Sprintf("post%d", i)))
	}
	e.Run(0)
	return append(log, fmt.Sprintf("end now=%d ran=%d", e.Now(), e.Ran()))
}

// TestReservedSeqsMatchUpFront: a batch streamed under reserved sequence
// numbers dispatches in exactly the order, at exactly the times, and with
// exactly the heap heads of the same batch scheduled up front, ties with
// earlier and later ordinary events included.
func TestReservedSeqsMatchUpFront(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		want := reservedScenario(seed, false)
		got := reservedScenario(seed, true)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: dispatch %d differs:\n  streamed: %v\n  up front: %s",
						seed, i, got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("seed %d: streamed log has %d extra entries", seed, len(got)-len(want))
		}
	}
}

func expectPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("no panic, want one mentioning %q", substr)
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q, want one mentioning %q", msg, substr)
		}
	}()
	f()
}

func TestAtReservedCallbackPanics(t *testing.T) {
	var cb countingCallback
	e := NewEngine(nil)
	first := e.ReserveSeqs(3)
	expectPanic(t, "never reserved", func() { e.AtReservedCallback(10, first+3, "x", &cb) })

	e.After(5, "tick", func() {})
	e.Run(0)
	expectPanic(t, "before now", func() { e.AtReservedCallback(4, first, "x", &cb) })

	e.AtReservedCallback(5, first, "x", &cb)
	e.Run(0)
	if cb.n != 1 {
		t.Fatalf("reserved event ran %d times, want 1", cb.n)
	}
}

// TestRestoreReservedGuardsCounter: a number restored as reserved makes
// FinishRestore reject a sequence counter that would hand it out again, and
// once restored it can be spent with AtReservedCallback.
func TestRestoreReservedGuardsCounter(t *testing.T) {
	var cb countingCallback
	e := NewEngine(nil)
	e.BeginRestore(100)
	e.RestoreReserved(7)
	if err := e.FinishRestore(7, 0); err == nil {
		t.Fatal("FinishRestore accepted counter 7 with seq 7 reserved")
	}
	if err := e.FinishRestore(8, 0); err != nil {
		t.Fatal(err)
	}
	e.AtReservedCallback(120, 7, "x", &cb)
	e.Run(0)
	if cb.n != 1 || e.Now() != 120 {
		t.Fatalf("reserved event ran %d times, clock %d; want 1 run at 120", cb.n, e.Now())
	}
}
