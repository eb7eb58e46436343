// Package monitor implements the generalized monitor/mwait engine of §3.1
// and §4 of the paper: hardware that watches writes to arbitrary physical
// addresses — from CPU stores, DMA engines, or interrupt-to-memory
// translations — and wakes hardware threads blocked on them.
//
// Differences from today's x86 monitor/mwait, all demanded by the paper:
//
//   - a thread may watch multiple addresses at once;
//   - watched addresses may be uncacheable (device registers, MMIO);
//   - writes from any source trigger the watch, including DMA
//     ("monitor any write (including DMA) to any address");
//   - usable from any privilege level.
//
// The engine implements the classic monitor/mwait race rule: a write that
// lands between MONITOR and MWAIT must not be lost — MWAIT then completes
// immediately. This "no lost wakeups" property is property-tested.
package monitor

import (
	"slices"
	"strconv"

	"nocs/internal/faultinject"
	"nocs/internal/mem"
	"nocs/internal/sim"
	"nocs/internal/trace"
)

// Waiter is a hardware thread (or any component) that can block on watched
// addresses. Wake is called synchronously from the memory write path.
type Waiter interface {
	// MonitorWake delivers a wakeup caused by a write of val to addr.
	MonitorWake(addr, val int64, src mem.WriteSource)
}

// watcherState is one waiter's watch record. It lives for the engine's
// lifetime: a wake, cancel or eviction resets it in place (live=false) rather
// than deleting it, so steady-state arm/wait/wake cycles allocate nothing.
type watcherState struct {
	w       Waiter
	live    bool    // holds a record (checkpointed); false = none
	order   []int64 // armed addresses in arm order; also the membership set
	waiting bool    // blocked in mwait
	pending bool    // a watched write arrived after arm, before (or instead of) wait
	pAddr   int64
	pVal    int64
	pSrc    mem.WriteSource
}

// addrWatchers is the per-address waiter list, kept in global arm order so
// that a write waking several waiters delivers the wakeups deterministically
// (map iteration order would make racy multi-waiter programs diverge between
// otherwise identical runs). An entry outlives its last watcher so re-arming
// the address reuses it.
type addrWatchers struct {
	list []*watcherState // arm order; entries removed on disarm
}

func (aw *addrWatchers) remove(s *watcherState) {
	for i, x := range aw.list {
		if x == s {
			aw.list = append(aw.list[:i], aw.list[i+1:]...)
			return
		}
	}
}

// Counters is the engine's named event counts, in a stable order (the
// checkpoint writes them in this order).
type Counters struct {
	Wakeups   uint64 // delivered wakeups, immediate and spurious included
	Immediate uint64 // mwait completed without blocking (pending write)
	Dropped   uint64 // writes invisible due to DMAVisible=false
	Evicted   uint64 // watches displaced by the MaxWatches budget
	Spurious  uint64 // injected spurious wakes actually delivered
	Coalesced uint64 // wake batches delivered late by injected coalescing
}

// Engine is the machine-wide monitor filter. It observes every write to
// physical memory and wakes waiters whose armed watch sets match.
//
// DMAVisible=false models today's hardware, where only CPU writes that reach
// the coherence fabric trigger monitor (ablation A2): device writes then
// silently do not wake waiters and the platform must fall back to interrupts.
type Engine struct {
	DMAVisible bool
	// MaxWatches caps the number of addresses one waiter may have armed
	// (0 = unlimited). Real hardware has a finite watch-entry budget; when
	// exceeded, the OLDEST watch is silently evicted — the §4 hardware-cost
	// knob ("if the number of hardware threads is sufficiently high, we can
	// avoid the ... complexities associated with having threads each busy
	// poll multiple memory locations").
	MaxWatches int

	watchers map[Waiter]*watcherState
	byAddr   map[int64]*addrWatchers
	// last is the record state returned most recently. A waiter arms its
	// addresses and then waits in a run of calls, so most lookups hit it and
	// skip hashing the interface key.
	last *watcherState

	// Tracing (nil tr = off). Each delivered wakeup starts a flow on the
	// monitor track and stashes its ID in the tracer; the core's synchronous
	// wake path consumes the stash and terminates the flow on the woken
	// ptid's track, drawing the arm→fire→resume chain in Perfetto.
	tr      *trace.Tracer
	trNow   func() int64
	trTrack trace.TrackID

	// Fault injection (nil inj = off). after schedules deferred deliveries
	// on the machine's event engine — the monitor has no clock or engine of
	// its own, so the machine supplies both when it arms a fault plan. It
	// returns the event handle so deferred deliveries stay checkpointable
	// (DESIGN.md §13): every in-flight injection is tracked in pending with
	// its handle and a serializable payload.
	inj     *faultinject.Injector
	after   func(d sim.Cycles, name string, cb sim.Callback) sim.Handle
	pending []*pendingInj

	// batch is the wake-batch scratch slice. ObserveWrite takes it (leaving
	// nil) while it collects and delivers, and hands it back afterwards, so a
	// write issued from inside a MonitorWake handler builds its own batch
	// instead of overwriting the one still being delivered.
	batch []*watcherState

	n Counters
}

// NewEngine returns a monitor engine with full (paper-semantics) visibility.
func NewEngine() *Engine {
	return &Engine{
		DMAVisible: true,
		watchers:   make(map[Waiter]*watcherState),
		byAddr:     make(map[int64]*addrWatchers),
	}
}

var _ mem.WriteObserver = (*Engine)(nil)

// SetTracer attaches a tracer; now supplies the current cycle (the monitor
// engine has no clock of its own) and process names the track group.
func (e *Engine) SetTracer(tr *trace.Tracer, now func() int64, process string) {
	e.tr = tr
	e.trNow = now
	if tr != nil {
		e.trTrack = tr.NewTrack(process, "watches")
	}
}

// SetFaultInjector arms fault injection: spurious wakes after blocking
// waits and coalesced (deferred) wake batches. after schedules a callback
// on the machine's event engine and returns its handle.
func (e *Engine) SetFaultInjector(inj *faultinject.Injector, after func(d sim.Cycles, name string, cb sim.Callback) sim.Handle) {
	e.inj = inj
	e.after = after
}

// Event names of the monitor's deferred fault deliveries, exported for the
// checkpoint layer (which re-creates the events with their original names).
const (
	EvSpuriousWake  = "fault-spurious-wake"
	EvCoalescedWake = "fault-coalesced-wake"
)

// pendingInj is one scheduled-but-undelivered fault injection: a spurious
// wake aimed at one waiter, or a coalesced wake batch. It is the event body
// (sim.Callback), so the delivery path stays closure-free and the payload
// stays serializable for checkpoints.
type pendingInj struct {
	e        *Engine
	h        sim.Handle
	spurious bool
	w        Waiter          // spurious target
	batch    []*watcherState // coalesced batch
	addr     int64
	val      int64
	src      mem.WriteSource
}

// OnEvent delivers the deferred injection and unlinks it from the pending
// list.
func (p *pendingInj) OnEvent() {
	p.e.unlink(p)
	if p.spurious {
		p.e.InjectWake(p.w)
		return
	}
	p.e.n.Coalesced++
	p.e.deliverBatch(p.batch, p.addr, p.val, p.src)
}

func (e *Engine) unlink(p *pendingInj) {
	for i, q := range e.pending {
		if q == p {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return
		}
	}
}

// traceFire records one wakeup delivery and stashes its flow for the core's
// wake path to terminate on the ptid track.
func (e *Engine) traceFire(addr int64, src mem.WriteSource, immediate bool) {
	at := e.trNow()
	arg := "0x" + strconv.FormatInt(addr, 16) + " " + src.String()
	if immediate {
		arg += " immediate"
	}
	e.tr.InstantArg(e.trTrack, "fire", arg, at)
	f := e.tr.NewFlow()
	e.tr.FlowStart(e.trTrack, "wake", at, f)
	e.tr.StashFlow(f)
}

// state returns w's persistent watch record, creating it (not live) on first
// use.
func (e *Engine) state(w Waiter) *watcherState {
	if s := e.last; s != nil && s.w == w {
		return s
	}
	s := e.watchers[w]
	if s == nil {
		s = &watcherState{w: w}
		e.watchers[w] = s
	}
	e.last = s
	return s
}

// Arm adds addr to w's watch set (MONITOR). Multiple addresses may be armed
// before a single Wait; any of them triggers the wake. With MaxWatches set,
// arming beyond the budget evicts the waiter's oldest watch.
func (e *Engine) Arm(w Waiter, addr int64) {
	s := e.state(w)
	s.live = true
	// Watch sets are small (16 addresses at most in the shipped programs,
	// and capped by MaxWatches), so a scan beats a per-waiter map.
	if slices.Contains(s.order, addr) {
		return
	}
	if e.MaxWatches > 0 && len(s.order) >= e.MaxWatches {
		victim := s.order[0]
		s.order = append(s.order[:0], s.order[1:]...)
		e.byAddr[victim].remove(s)
		e.n.Evicted++
	}
	s.order = append(s.order, addr)
	aw := e.byAddr[addr]
	if aw == nil {
		aw = &addrWatchers{}
		e.byAddr[addr] = aw
	}
	aw.list = append(aw.list, s)
	if e.tr != nil {
		e.tr.InstantArg(e.trTrack, "arm", "0x"+strconv.FormatInt(addr, 16), e.trNow())
	}
}

// Armed reports how many addresses w currently watches.
func (e *Engine) Armed(w Waiter) int {
	if s := e.watchers[w]; s != nil {
		return len(s.order)
	}
	return 0
}

// Wait transitions w into the blocked state (MWAIT). If a watched write
// already arrived since arming, the wait completes immediately: Wait returns
// false and delivers the buffered wake via w.MonitorWake before returning.
// Otherwise it returns true and the waiter stays blocked until a write.
//
// Waiting with no armed addresses returns false immediately (like x86, an
// mwait without a monitor does not block) and delivers nothing. It still
// leaves w holding an empty record, which checkpoints carry.
func (e *Engine) Wait(w Waiter) (blocked bool) {
	s := e.state(w)
	s.live = true
	if len(s.order) == 0 {
		return false
	}
	if s.pending {
		addr, val, src := s.pAddr, s.pVal, s.pSrc
		e.disarm(s)
		e.n.Immediate++
		e.n.Wakeups++
		if e.tr != nil {
			e.traceFire(addr, src, true)
		}
		w.MonitorWake(addr, val, src)
		e.tr.StashFlow(0) // drop the flow if the waiter didn't consume it
		return false
	}
	s.waiting = true
	if e.inj != nil && e.after != nil {
		if d, ok := e.inj.SpuriousWake(); ok {
			p := &pendingInj{e: e, spurious: true, w: w}
			p.h = e.after(d, EvSpuriousWake, p)
			e.pending = append(e.pending, p)
		}
	}
	return true
}

// InjectWake delivers a spurious wakeup to w: the monitor reports a write on
// w's oldest armed address that never happened. Like any wake it consumes
// the watch set, so a correct waiter must re-arm before re-checking — the
// degradation path the kernel service loop exercises. Delivered only if w is
// still blocked; a waiter that was legitimately woken in the meantime is
// left alone (returns false). Plan-driven injection (SetFaultInjector) and
// the differential harness's precomputed fault schedules both land here.
func (e *Engine) InjectWake(w Waiter) bool {
	s := e.watchers[w]
	if s == nil || !s.waiting || len(s.order) == 0 {
		return false
	}
	addr := s.order[0]
	e.disarm(s)
	e.n.Wakeups++
	e.n.Spurious++
	if e.tr != nil {
		e.traceFire(addr, mem.SrcCPU, false)
	}
	w.MonitorWake(addr, 0, mem.SrcCPU)
	e.tr.StashFlow(0)
	return true
}

// CancelWait removes w from the blocked state without a wake (used when a
// ptid blocked in mwait is stopped/disabled by another thread: the paper
// allows stop on waiting threads).
func (e *Engine) CancelWait(w Waiter) {
	if s := e.watchers[w]; s != nil {
		e.disarm(s)
	}
}

// disarm clears all watches and flags of s and drops its record, keeping the
// order slice's capacity for the next arm. A wake consumes the whole watch
// set: like x86, the monitor must be re-armed after every wakeup.
func (e *Engine) disarm(s *watcherState) {
	for _, a := range s.order {
		e.byAddr[a].remove(s)
	}
	*s = watcherState{w: s.w, order: s.order[:0]}
}

// ObserveWrite implements mem.WriteObserver: the engine is attached to
// physical memory and sees every write in the machine.
func (e *Engine) ObserveWrite(addr, val int64, src mem.WriteSource) {
	aw := e.byAddr[addr]
	if aw == nil || len(aw.list) == 0 {
		return
	}
	if !e.DMAVisible && src != mem.SrcCPU {
		e.n.Dropped++
		if e.tr != nil {
			e.tr.InstantArg(e.trTrack, "dropped",
				"0x"+strconv.FormatInt(addr, 16)+" "+src.String(), e.trNow())
		}
		return
	}
	// Collect first (in arm order, so wake delivery is deterministic): Wake
	// handlers may re-arm, mutating the watch structures. The batch is ours
	// until delivery ends; a nested write starts from a nil scratch.
	batch := e.batch[:0]
	e.batch = nil
	for _, s := range aw.list {
		if s.waiting {
			batch = append(batch, s)
		} else {
			s.pending = true
			s.pAddr, s.pVal, s.pSrc = addr, val, src
		}
	}
	if len(batch) > 0 && e.inj != nil && e.after != nil {
		if d, ok := e.inj.CoalesceWake(); ok {
			// Deferred delivery: the monitor batches this notification and
			// releases it late. Waiters woken by another write in the
			// meantime are skipped inside deliverBatch — the wake is
			// coalesced with that one, never lost.
			p := &pendingInj{
				e: e, batch: append([]*watcherState(nil), batch...),
				addr: addr, val: val, src: src,
			}
			p.h = e.after(d, EvCoalescedWake, p)
			e.pending = append(e.pending, p)
			e.batch = batch
			return
		}
	}
	e.deliverBatch(batch, addr, val, src)
	e.batch = batch
}

// deliverBatch wakes every still-waiting waiter in the batch.
func (e *Engine) deliverBatch(batch []*watcherState, addr, val int64, src mem.WriteSource) {
	for _, s := range batch {
		if !s.waiting {
			continue // a previous wake in this batch may have disturbed it
		}
		e.disarm(s)
		e.n.Wakeups++
		if e.tr != nil {
			e.traceFire(addr, src, false)
		}
		s.w.MonitorWake(addr, val, src)
		e.tr.StashFlow(0) // drop the flow if the waiter didn't consume it
	}
}

// Counters returns the engine's event counts.
func (e *Engine) Counters() Counters { return e.n }

// Stats returns (delivered wakeups, immediate-completion waits, writes
// dropped because DMA visibility was disabled). Kept for the benchmark
// program (perfbench/serve.go), which is pinned to this signature; new code
// uses Counters.
func (e *Engine) Stats() (wakeups, immediate, dropped uint64) {
	return e.n.Wakeups, e.n.Immediate, e.n.Dropped
}

// Waiting reports whether w is currently blocked in mwait.
func (e *Engine) Waiting(w Waiter) bool {
	s := e.watchers[w]
	return s != nil && s.waiting
}
