package monitor

import (
	"testing"

	"nocs/internal/mem"
)

// countWaiter counts its wakes without allocating.
type countWaiter struct{ wakes int }

func (w *countWaiter) MonitorWake(addr, val int64, src mem.WriteSource) { w.wakes++ }

// requireNoAllocs runs f once to warm up (records, address lists and the
// wake-batch scratch reach their steady sizes) and then asserts that further
// runs allocate nothing.
func requireNoAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	f()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Fatalf("%s: %.1f allocations per run after warm-up, want 0", what, n)
	}
}

// TestArmWaitWakeZeroAlloc is the arm → wait → store-wake cycle of the
// monitor microbenchmark: sixteen waiters, each on its own word, woken by a
// CPU store through physical memory.
func TestArmWaitWakeZeroAlloc(t *testing.T) {
	const waiters, base = 16, 0x1000
	e := NewEngine()
	m := mem.NewMemory()
	m.AddObserver(e)
	ws := make([]*countWaiter, waiters)
	for i := range ws {
		ws[i] = &countWaiter{}
	}
	n := 0
	requireNoAllocs(t, "arm/wait/wake", func() {
		for i, w := range ws {
			addr := int64(base + 8*i)
			e.Arm(w, addr)
			if !e.Wait(w) {
				t.Fatal("waiter did not block")
			}
			m.Write(addr, int64(n), mem.SrcCPU)
			n++
		}
	})
	for _, w := range ws {
		if w.wakes == 0 {
			t.Fatal("a waiter was never woken")
		}
	}
}

// TestPendingWriteZeroAlloc writes to a watched address whose waiter has
// armed but not yet waited: the write is buffered in the waiter's record.
func TestPendingWriteZeroAlloc(t *testing.T) {
	e := NewEngine()
	ws := []*countWaiter{{}, {}, {}}
	for _, w := range ws {
		e.Arm(w, 0x40)
	}
	requireNoAllocs(t, "pending write", func() {
		e.ObserveWrite(0x40, 1, mem.SrcDMA)
	})
	if e.Wait(ws[0]) || ws[0].wakes != 1 {
		t.Fatal("buffered write did not complete the wait")
	}
}

// TestUnwatchedWriteZeroAlloc writes to an address nobody watches, both one
// that was never armed and one whose watchers have all been woken.
func TestUnwatchedWriteZeroAlloc(t *testing.T) {
	e := NewEngine()
	w := &countWaiter{}
	e.Arm(w, 0x40)
	e.Wait(w)
	e.ObserveWrite(0x40, 1, mem.SrcCPU)
	requireNoAllocs(t, "unwatched write", func() {
		e.ObserveWrite(0x40, 2, mem.SrcCPU)
		e.ObserveWrite(0x80, 3, mem.SrcCPU)
	})
	if w.wakes != 1 {
		t.Fatalf("wakes = %d, want 1", w.wakes)
	}
}

// TestEvictingRearmZeroAlloc re-arms under a MaxWatches budget so that every
// arm evicts the waiter's oldest watch.
func TestEvictingRearmZeroAlloc(t *testing.T) {
	e := NewEngine()
	e.MaxWatches = 2
	w := &countWaiter{}
	addrs := []int64{0x100, 0x200, 0x300, 0x400}
	requireNoAllocs(t, "evicting re-arm", func() {
		for _, a := range addrs {
			e.Arm(w, a)
		}
	})
	if e.Armed(w) != 2 || e.Counters().Evicted == 0 {
		t.Fatalf("armed=%d evicted=%d", e.Armed(w), e.Counters().Evicted)
	}
}
