package monitor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"nocs/internal/mem"
	"nocs/internal/snapshot"
)

// idTable translates between test waiters and checkpoint ids (1-based).
type idTable []Waiter

func (t idTable) id(w Waiter) (int64, bool) {
	for i, x := range t {
		if x == w {
			return int64(i + 1), true
		}
	}
	return 0, false
}

func (t idTable) waiter(id int64) (Waiter, error) {
	if id < 1 || id > int64(len(t)) {
		return nil, fmt.Errorf("unknown waiter id %d", id)
	}
	return t[id-1], nil
}

// encodeEngine returns e's checkpoint section wrapped in a snapshot container.
func encodeEngine(t testing.TB, e *Engine, ids idTable) []byte {
	t.Helper()
	b := snapshot.NewBuilder()
	if err := e.SnapshotState(b.Section("monitor"), ids.id); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreEngine decodes a container written by encodeEngine into e.
func restoreEngine(e *Engine, data []byte, ids idTable) error {
	s, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	r, err := s.Section("monitor")
	if err != nil {
		return err
	}
	return e.RestoreState(r, ids.waiter)
}

// pinnedScenario drives one engine (MaxWatches 2) through every kind of
// checkpointed watch state: blocked waiters, a buffered pending write, the
// empty record a Wait with nothing armed leaves, an eviction, a several-waiter
// address list whose arm order differs from id order, and records reset by an
// ordinary and an immediate wake.
func pinnedScenario() (*Engine, idTable) {
	e := NewEngine()
	e.MaxWatches = 2
	ws := make(idTable, 6)
	for i := range ws {
		ws[i] = &fakeWaiter{}
	}
	w := func(id int) Waiter { return ws[id-1] }

	e.Arm(w(3), 0x100)
	e.Arm(w(1), 0x200)
	e.Arm(w(1), 0x100)
	e.Wait(w(1))
	e.Wait(w(3))
	e.Arm(w(2), 0x200)
	e.Arm(w(2), 0x300)
	e.Arm(w(2), 0x400) // evicts w2's 0x200
	e.ObserveWrite(0x300, 7, mem.SrcDMA)
	e.Wait(w(4)) // nothing armed: empty live record
	e.Arm(w(5), 0x500)
	e.Wait(w(5))
	e.ObserveWrite(0x500, 9, mem.SrcMSI) // wakes w5
	e.Arm(w(5), 0x100)
	e.Arm(w(6), 0x600)
	e.ObserveWrite(0x600, 11, mem.SrcCPU)
	e.Wait(w(6)) // immediate
	e.ObserveWrite(0x700, 1, mem.SrcCPU)
	return e, ws
}

// TestMonitorSnapshotBytesPinned pins the checkpoint bytes of pinnedScenario.
// The digest was taken from the map-based engine this one replaced; the
// persistent watch records must not change a single byte.
func TestMonitorSnapshotBytesPinned(t *testing.T) {
	const want = "4e140220b47490279242aba49a23f98fd53f1b35cfa151cc075a5cbe21d59c86"
	e, ids := pinnedScenario()
	data := encodeEngine(t, e, ids)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("checkpoint sha256 %s, want %s", got, want)
	}

	// Restoring and re-encoding reproduces the bytes, and the restored
	// engine behaves like the original: a write to 0x100 wakes w3 then w1
	// (arm order, not id order) and leaves w5, armed but not blocked, alone.
	r := NewEngine()
	r.MaxWatches = 2
	if err := restoreEngine(r, data, ids); err != nil {
		t.Fatal(err)
	}
	if again := encodeEngine(t, r, ids); !bytes.Equal(again, data) {
		t.Fatal("restored engine re-encodes to different bytes")
	}
	var order []int
	for i, w := range ids {
		i := i
		w.(*fakeWaiter).rearm = func(*fakeWaiter) { order = append(order, i+1) }
	}
	r.ObserveWrite(0x100, 3, mem.SrcCPU)
	if fmt.Sprint(order) != "[3 1]" {
		t.Fatalf("restored wake order %v, want [3 1]", order)
	}
}

// TestRestoreRejectsInconsistentState feeds RestoreState checkpoints whose
// per-address lists and watch sets disagree. Each must be rejected: the
// engine trusts the two views to match when it disarms.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	type rec struct {
		id    int64
		order []int64
	}
	type list struct {
		addr int64
		ids  []int64
	}
	encode := func(recs []rec, lists []list) []byte {
		b := snapshot.NewBuilder()
		w := b.Section("monitor")
		w.Len(len(recs))
		for _, r := range recs {
			w.I64(r.id).I64s(r.order).Bool(true).Bool(false)
			w.I64(0).I64(0).U8(0)
		}
		w.Len(len(lists))
		for _, l := range lists {
			w.I64(l.addr).Len(len(l.ids))
			for _, id := range l.ids {
				w.I64(id)
			}
		}
		for i := 0; i < 6; i++ {
			w.U64(0)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ids := idTable{&fakeWaiter{}, &fakeWaiter{}}
	good := []rec{{1, []int64{0x10, 0x20}}, {2, []int64{0x20}}}
	goodLists := []list{{0x10, []int64{1}}, {0x20, []int64{2, 1}}}
	if err := restoreEngine(NewEngine(), encode(good, goodLists), ids); err != nil {
		t.Fatalf("consistent checkpoint rejected: %v", err)
	}

	cases := []struct {
		name  string
		recs  []rec
		lists []list
		want  string
	}{
		{"waiter repeated in a list", good,
			[]list{{0x10, []int64{1}}, {0x20, []int64{2, 1, 2}}}, "twice"},
		{"address repeated in a watch set",
			[]rec{{1, []int64{0x10, 0x20, 0x10}}, {2, []int64{0x20}}}, goodLists, "twice"},
		{"empty address list", good,
			[]list{{0x10, []int64{1}}, {0x18, nil}, {0x20, []int64{2, 1}}}, "empty"},
		{"list names a waiter that does not watch the address", good,
			[]list{{0x10, []int64{1, 2}}, {0x20, []int64{2, 1}}}, "does not watch"},
		{"list names a waiter with no record",
			[]rec{{1, []int64{0x10, 0x20}}}, goodLists, "does not watch"},
		{"watched address missing from its list", good,
			[]list{{0x10, []int64{1}}, {0x20, []int64{2}}}, "address-list entries"},
		{"address listed twice", good,
			[]list{{0x10, []int64{1}}, {0x20, []int64{2}}, {0x20, []int64{1}}}, "listed twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			err := restoreEngine(e, encode(c.recs, c.lists), ids)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreState error %v, want one mentioning %q", err, c.want)
			}
		})
	}
}
