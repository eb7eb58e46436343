package monitor

import (
	"fmt"
	"slices"
	"sort"

	"nocs/internal/mem"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). Waiters are interface values, so the
// machine layer supplies the translation in both directions: id maps a live
// waiter to a stable integer (its ptid, in practice) and waiter maps it back.
// Three pieces of state round-trip:
//
//   - per-waiter watch sets in arm order, plus the waiting/pending flags and
//     the buffered pending write;
//   - per-address waiter lists in global arm order (a write waking several
//     waiters delivers in this order — it is not recoverable from the
//     per-waiter orders alone);
//   - the wakeup counters.
//
// Scheduled-but-undelivered fault injections are events, owned by the
// machine's event checkpoint: PendingInjections exports them and the two
// Restore*Injection methods re-create them against restored event handles.

// PendingInjection describes one scheduled-but-undelivered fault injection.
type PendingInjection struct {
	Handle   sim.Handle
	Spurious bool
	Waiter   Waiter   // spurious target (nil for coalesced)
	Batch    []Waiter // coalesced batch (nil for spurious)
	Addr     int64
	Val      int64
	Src      mem.WriteSource
}

// PendingInjections lists the in-flight deferred fault deliveries in
// scheduling order.
func (e *Engine) PendingInjections() []PendingInjection {
	out := make([]PendingInjection, 0, len(e.pending))
	for _, p := range e.pending {
		pi := PendingInjection{
			Handle: p.h, Spurious: p.spurious, Waiter: p.w,
			Addr: p.addr, Val: p.val, Src: p.src,
		}
		for _, s := range p.batch {
			pi.Batch = append(pi.Batch, s.w)
		}
		out = append(out, pi)
	}
	return out
}

// RestoreSpuriousInjection re-creates a pending spurious wake. schedule must
// queue the callback at the injection's original (cycle, sequence) slot and
// return the new handle.
func (e *Engine) RestoreSpuriousInjection(w Waiter, schedule func(cb sim.Callback) sim.Handle) {
	p := &pendingInj{e: e, spurious: true, w: w}
	p.h = schedule(p)
	e.pending = append(e.pending, p)
}

// RestoreCoalescedInjection re-creates a pending coalesced wake batch.
func (e *Engine) RestoreCoalescedInjection(batch []Waiter, addr, val int64, src mem.WriteSource, schedule func(cb sim.Callback) sim.Handle) {
	p := &pendingInj{e: e, addr: addr, val: val, src: src}
	for _, w := range batch {
		p.batch = append(p.batch, e.state(w))
	}
	p.h = schedule(p)
	e.pending = append(e.pending, p)
}

// SnapshotState writes the watch sets, per-address arm orders, and counters.
// id translates a live waiter to its stable checkpoint id; a waiter it does
// not know makes the state non-checkpointable. Records that hold nothing
// (never used, or reset by a wake) and address lists left empty are not
// written: the bytes depend only on the live watch state.
func (e *Engine) SnapshotState(w *snapshot.W, id func(Waiter) (int64, bool)) error {
	type watcherRec struct {
		id int64
		s  *watcherState
	}
	recs := make([]watcherRec, 0, len(e.watchers))
	for wt, s := range e.watchers {
		if !s.live {
			continue
		}
		wid, ok := id(wt)
		if !ok {
			return fmt.Errorf("monitor: waiter %T is not checkpointable", wt)
		}
		recs = append(recs, watcherRec{wid, s})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	w.Len(len(recs))
	for _, rec := range recs {
		w.I64(rec.id)
		w.I64s(rec.s.order)
		w.Bool(rec.s.waiting).Bool(rec.s.pending)
		w.I64(rec.s.pAddr).I64(rec.s.pVal).U8(uint8(rec.s.pSrc))
	}

	addrs := make([]int64, 0, len(e.byAddr))
	for a, aw := range e.byAddr {
		if len(aw.list) > 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Len(len(addrs))
	for _, a := range addrs {
		w.I64(a)
		aw := e.byAddr[a]
		w.Len(len(aw.list))
		for _, s := range aw.list {
			wid, ok := id(s.w)
			if !ok {
				return fmt.Errorf("monitor: waiter %T is not checkpointable", s.w)
			}
			w.I64(wid)
		}
	}

	w.U64(e.n.Wakeups).U64(e.n.Immediate).U64(e.n.Dropped)
	w.U64(e.n.Evicted).U64(e.n.Spurious).U64(e.n.Coalesced)
	return nil
}

// RestoreState replaces the watch sets and counters with the checkpoint's.
// waiter translates a checkpoint id back to the live waiter object. Pending
// injections are restored separately by the machine's event restore.
//
// The per-address lists must be exactly the watch sets read the other way:
// every (address, waiter) pair in a list is an address that waiter holds,
// every held address is listed once, no list is empty, and no watch set
// repeats an address. A checkpoint that breaks this is rejected; the engine
// relies on it when it disarms.
func (e *Engine) RestoreState(r *snapshot.R, waiter func(int64) (Waiter, error)) error {
	nw := r.Len(8)
	watchers := make(map[Waiter]*watcherState, nw)
	held := 0 // (waiter, address) pairs in the watch sets
	for i := 0; i < nw; i++ {
		wid := r.I64()
		s := &watcherState{live: true, order: r.I64s()}
		s.waiting, s.pending = r.Bool(), r.Bool()
		s.pAddr, s.pVal, s.pSrc = r.I64(), r.I64(), mem.WriteSource(r.U8())
		if r.Err() != nil {
			return r.Err()
		}
		wt, err := waiter(wid)
		if err != nil {
			return err
		}
		for j, a := range s.order {
			if slices.Contains(s.order[:j], a) {
				return fmt.Errorf("monitor: waiter id %d watches address 0x%x twice", wid, a)
			}
		}
		if _, dup := watchers[wt]; dup {
			return fmt.Errorf("monitor: duplicate waiter id %d in snapshot", wid)
		}
		s.w = wt
		watchers[wt] = s
		held += len(s.order)
	}

	na := r.Len(12)
	byAddr := make(map[int64]*addrWatchers, na)
	listed := 0
	for i := 0; i < na; i++ {
		a := r.I64()
		n := r.Len(8)
		if r.Err() != nil {
			return r.Err()
		}
		if n == 0 {
			return fmt.Errorf("monitor: empty waiter list for address 0x%x", a)
		}
		if byAddr[a] != nil {
			return fmt.Errorf("monitor: address 0x%x listed twice", a)
		}
		aw := &addrWatchers{list: make([]*watcherState, 0, n)}
		for j := 0; j < n; j++ {
			wid := r.I64()
			if r.Err() != nil {
				return r.Err()
			}
			wt, err := waiter(wid)
			if err != nil {
				return err
			}
			s := watchers[wt]
			if s == nil || !slices.Contains(s.order, a) {
				return fmt.Errorf("monitor: address 0x%x lists waiter id %d, which does not watch it", a, wid)
			}
			if slices.Contains(aw.list, s) {
				return fmt.Errorf("monitor: address 0x%x lists waiter id %d twice", a, wid)
			}
			aw.list = append(aw.list, s)
		}
		byAddr[a] = aw
		listed += n
	}
	// Every listed pair is held and no pair is listed twice, so equal counts
	// mean every held address is listed.
	if listed != held {
		return fmt.Errorf("monitor: %d watched addresses but %d address-list entries", held, listed)
	}

	var n Counters
	n.Wakeups, n.Immediate, n.Dropped = r.U64(), r.U64(), r.U64()
	n.Evicted, n.Spurious, n.Coalesced = r.U64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}

	e.watchers = watchers
	e.byAddr = byAddr
	e.last = nil
	e.pending = nil
	e.n = n
	return nil
}
