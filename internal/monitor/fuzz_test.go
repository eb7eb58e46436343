package monitor

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"nocs/internal/mem"
	"nocs/internal/snapshot"
)

// refEngine is a test-only model of the monitor engine, written the direct
// way: a map of watch records that a wake deletes, a per-address membership
// map beside the arm-order list, and a fresh slice per wake batch. The
// engine must be indistinguishable from it: same wakes in the same order,
// same return values, counters and checkpoint bytes. It has no fault
// injector; injected wakes reach it through InjectWake.
type refEngine struct {
	dmaVisible bool
	maxWatches int
	watchers   map[Waiter]*refState
	byAddr     map[int64]*refAddr
	n          Counters
}

type refState struct {
	addrs   map[int64]bool
	order   []int64
	waiting bool
	pending bool
	pAddr   int64
	pVal    int64
	pSrc    mem.WriteSource
}

type refAddr struct {
	set  map[Waiter]bool
	list []Waiter
}

func newRefEngine(dmaVisible bool, maxWatches int) *refEngine {
	return &refEngine{
		dmaVisible: dmaVisible, maxWatches: maxWatches,
		watchers: map[Waiter]*refState{}, byAddr: map[int64]*refAddr{},
	}
}

func (m *refEngine) unlist(w Waiter, a int64) {
	ra := m.byAddr[a]
	delete(ra.set, w)
	for i, x := range ra.list {
		if x == w {
			ra.list = append(ra.list[:i], ra.list[i+1:]...)
			break
		}
	}
	if len(ra.list) == 0 {
		delete(m.byAddr, a)
	}
}

func (m *refEngine) disarm(w Waiter) {
	for a := range m.watchers[w].addrs {
		m.unlist(w, a)
	}
	delete(m.watchers, w)
}

func (m *refEngine) state(w Waiter) *refState {
	s := m.watchers[w]
	if s == nil {
		s = &refState{addrs: map[int64]bool{}}
		m.watchers[w] = s
	}
	return s
}

func (m *refEngine) Arm(w Waiter, addr int64) {
	s := m.state(w)
	if s.addrs[addr] {
		return
	}
	if m.maxWatches > 0 && len(s.addrs) >= m.maxWatches {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.addrs, victim)
		m.unlist(w, victim)
		m.n.Evicted++
	}
	s.addrs[addr] = true
	s.order = append(s.order, addr)
	ra := m.byAddr[addr]
	if ra == nil {
		ra = &refAddr{set: map[Waiter]bool{}}
		m.byAddr[addr] = ra
	}
	ra.set[w] = true
	ra.list = append(ra.list, w)
}

func (m *refEngine) Wait(w Waiter) bool {
	s := m.state(w)
	if len(s.addrs) == 0 {
		return false
	}
	if s.pending {
		m.disarm(w)
		m.n.Immediate++
		m.n.Wakeups++
		w.MonitorWake(s.pAddr, s.pVal, s.pSrc)
		return false
	}
	s.waiting = true
	return true
}

func (m *refEngine) InjectWake(w Waiter) bool {
	s := m.watchers[w]
	if s == nil || !s.waiting || len(s.order) == 0 {
		return false
	}
	m.disarm(w)
	m.n.Wakeups++
	m.n.Spurious++
	w.MonitorWake(s.order[0], 0, mem.SrcCPU)
	return true
}

func (m *refEngine) CancelWait(w Waiter) {
	if m.watchers[w] != nil {
		m.disarm(w)
	}
}

func (m *refEngine) ObserveWrite(addr, val int64, src mem.WriteSource) {
	ra := m.byAddr[addr]
	if ra == nil {
		return
	}
	if !m.dmaVisible && src != mem.SrcCPU {
		m.n.Dropped++
		return
	}
	var batch []Waiter
	for _, w := range ra.list {
		s := m.watchers[w]
		if s.waiting {
			batch = append(batch, w)
		} else {
			s.pending = true
			s.pAddr, s.pVal, s.pSrc = addr, val, src
		}
	}
	for _, w := range batch {
		if s := m.watchers[w]; s == nil || !s.waiting {
			continue
		}
		m.disarm(w)
		m.n.Wakeups++
		w.MonitorWake(addr, val, src)
	}
}

func (m *refEngine) Armed(w Waiter) int {
	if s := m.watchers[w]; s != nil {
		return len(s.order)
	}
	return 0
}

func (m *refEngine) Waiting(w Waiter) bool {
	s := m.watchers[w]
	return s != nil && s.waiting
}

// encode writes the model in the engine's checkpoint format, in a snapshot
// container like encodeEngine's.
func (m *refEngine) encode(t testing.TB, ids idTable) []byte {
	t.Helper()
	b := snapshot.NewBuilder()
	w := b.Section("monitor")
	var recs []Waiter
	for wt := range m.watchers {
		recs = append(recs, wt)
	}
	id := func(wt Waiter) int64 {
		i, ok := ids.id(wt)
		if !ok {
			t.Fatalf("model holds unknown waiter %v", wt)
		}
		return i
	}
	sort.Slice(recs, func(i, j int) bool { return id(recs[i]) < id(recs[j]) })
	w.Len(len(recs))
	for _, wt := range recs {
		s := m.watchers[wt]
		w.I64(id(wt)).I64s(s.order).Bool(s.waiting).Bool(s.pending)
		w.I64(s.pAddr).I64(s.pVal).U8(uint8(s.pSrc))
	}
	var addrs []int64
	for a := range m.byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Len(len(addrs))
	for _, a := range addrs {
		w.I64(a).Len(len(m.byAddr[a].list))
		for _, wt := range m.byAddr[a].list {
			w.I64(id(wt))
		}
	}
	w.U64(m.n.Wakeups).U64(m.n.Immediate).U64(m.n.Dropped)
	w.U64(m.n.Evicted).U64(m.n.Spurious).U64(m.n.Coalesced)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// monitorAPI is the surface the differential harness drives on both the
// engine and the model.
type monitorAPI interface {
	Arm(w Waiter, addr int64)
	Wait(w Waiter) bool
	InjectWake(w Waiter) bool
	CancelWait(w Waiter)
	ObserveWrite(addr, val int64, src mem.WriteSource)
	Armed(w Waiter) int
	Waiting(w Waiter) bool
}

// Wake behaviours of a scripted waiter.
const (
	wakeIdle       = iota // record the wake only
	wakeRearm             // re-arm home, wait
	wakeStoreRearm        // store to other, re-arm home, wait
	wakeStore             // store to other
)

// side is one half of a differential run: an engine or the model, plus
// waiters whose wake handlers act on it.
type side struct {
	api   monitorAPI
	ws    []*scriptWaiter
	log   []string
	depth int
}

// scriptWaiter records each wake in its side's log and then runs its wake
// behaviour. Wakes nested deeper than three handlers only record, so a
// handler-to-handler store chain always ends.
type scriptWaiter struct {
	sd          *side
	id          int
	behaviour   int
	home, other int64
}

func (w *scriptWaiter) MonitorWake(addr, val int64, src mem.WriteSource) {
	sd := w.sd
	sd.log = append(sd.log, fmt.Sprintf("w%d<-0x%x=%d/%v@%d", w.id, addr, val, src, sd.depth))
	if w.behaviour == wakeIdle || sd.depth >= 3 {
		return
	}
	sd.depth++
	defer func() { sd.depth-- }()
	if w.behaviour == wakeStoreRearm || w.behaviour == wakeStore {
		sd.api.ObserveWrite(w.other, val+1000, mem.SrcCPU)
	}
	if w.behaviour == wakeRearm || w.behaviour == wakeStoreRearm {
		sd.api.Arm(w, w.home)
		sd.log = append(sd.log, fmt.Sprintf("w%d rewait=%v", w.id, sd.api.Wait(w)))
	}
}

// newSide builds the waiters. Their handlers work on the first two
// addresses only (odd ids re-arm addrs[0] and store to addrs[1], even ids the
// reverse), so handler stores often find several blocked waiters and nest
// one wake batch inside another.
func newSide(api monitorAPI, behaviours []int, addrs []int64) *side {
	sd := &side{api: api}
	for i, b := range behaviours {
		sd.ws = append(sd.ws, &scriptWaiter{
			sd: sd, id: i + 1, behaviour: b,
			home: addrs[i%2], other: addrs[(i+1)%2],
		})
	}
	return sd
}

func (sd *side) ids() idTable {
	ids := make(idTable, len(sd.ws))
	for i, w := range sd.ws {
		ids[i] = w
	}
	return ids
}

// observe renders everything the harness compares between steps.
func (sd *side) observe(n Counters) string {
	s := fmt.Sprintf("%+v", n)
	for _, w := range sd.ws {
		s += fmt.Sprintf(" w%d:%d/%v", w.id, sd.api.Armed(w), sd.api.Waiting(w))
	}
	return s
}

var fuzzAddrs = []int64{0x40, 0x48, 0x50, 0x58, 0x1000}

// maxFuzzOps bounds one input's op sequence, so each run stays short enough
// for the fuzzer to keep its rate.
const maxFuzzOps = 256

// runMonitorOps decodes data into a configuration and an op sequence, runs it
// on a fresh engine and on the model, and fails on the first difference.
//
// Byte 0 picks the waiter count (1–6), MaxWatches (0, 1, 3) and DMA
// visibility; bytes 1–2 give each waiter a wake behaviour (two bits each).
// Then each op is an opcode byte followed by an argument byte.
func runMonitorOps(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	nw := 1 + int(data[0]%6)
	maxWatches := []int{0, 1, 3}[int(data[0]/6)%3]
	dmaVisible := (data[0]/18)%2 == 0
	bits := int(data[1]) | int(data[2])<<8
	behaviours := make([]int, nw)
	for i := range behaviours {
		behaviours[i] = (bits >> (2 * i)) & 3
	}
	newEng := func() *Engine {
		e := NewEngine()
		e.DMAVisible, e.MaxWatches = dmaVisible, maxWatches
		return e
	}
	eng := newEng()
	es := newSide(eng, behaviours, fuzzAddrs)
	ms := newSide(newRefEngine(dmaVisible, maxWatches), behaviours, fuzzAddrs)
	ref := ms.api.(*refEngine)
	ids, mids := es.ids(), ms.ids()

	ops := data[3:]
	if len(ops) > 2*maxFuzzOps {
		ops = ops[:2*maxFuzzOps]
	}
	seen := 0 // log entries already compared
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%8, int(ops[i+1])
		wi := arg % nw
		ew, mw := es.ws[wi], ms.ws[wi]
		addr := fuzzAddrs[(arg/nw)%len(fuzzAddrs)]
		val := int64(i)
		var step string
		switch op {
		case 0, 1:
			step = fmt.Sprintf("arm w%d 0x%x", wi+1, addr)
			es.api.Arm(ew, addr)
			ms.api.Arm(mw, addr)
		case 2:
			step = fmt.Sprintf("wait w%d", wi+1)
			if a, b := es.api.Wait(ew), ms.api.Wait(mw); a != b {
				t.Fatalf("op %d %s: engine blocked=%v, model %v", i/2, step, a, b)
			}
		case 3, 4:
			src := mem.SrcCPU
			if op == 4 {
				src = []mem.WriteSource{mem.SrcDMA, mem.SrcMSI}[arg/128]
			}
			step = fmt.Sprintf("write 0x%x %v", addr, src)
			es.api.ObserveWrite(addr, val, src)
			ms.api.ObserveWrite(addr, val, src)
		case 5:
			step = fmt.Sprintf("cancel w%d", wi+1)
			es.api.CancelWait(ew)
			ms.api.CancelWait(mw)
		case 6:
			step = fmt.Sprintf("inject w%d", wi+1)
			if a, b := es.api.InjectWake(ew), ms.api.InjectWake(mw); a != b {
				t.Fatalf("op %d %s: engine delivered=%v, model %v", i/2, step, a, b)
			}
		case 7:
			step = "snapshot/restore"
			got, want := encodeEngine(t, eng, ids), ref.encode(t, mids)
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: checkpoint bytes differ from the model's", i/2)
			}
			// Restore into a fresh engine or over the live one.
			if arg%2 == 1 {
				eng = newEng()
				es.api = eng
			}
			if err := restoreEngine(eng, got, ids); err != nil {
				t.Fatalf("op %d: restore: %v", i/2, err)
			}
		}
		if a, b := es.observe(eng.Counters()), ms.observe(ref.n); a != b {
			t.Fatalf("op %d %s: state differs\nengine %s\nmodel  %s", i/2, step, a, b)
		}
		if !slices.Equal(es.log[seen:], ms.log[seen:]) {
			t.Fatalf("op %d %s: wake sequences differ\nengine %v\nmodel  %v", i/2, step, es.log[seen:], ms.log[seen:])
		}
		seen = len(es.log)
	}
	if got, want := encodeEngine(t, eng, ids), ref.encode(t, mids); !bytes.Equal(got, want) {
		t.Fatal("final checkpoint bytes differ from the model's")
	}
}

// FuzzMonitorOps drives random arm/wait/write/cancel/inject/checkpoint
// sequences through the engine and the map-based model and requires
// identical behaviour.
func FuzzMonitorOps(f *testing.F) {
	// Three blocked waiters on one address, woken by a DMA write, each
	// re-arming or storing from its handler; then a checkpoint.
	f.Add([]byte{2, 0b100111, 0, 0, 0, 0, 1, 0, 2, 2, 0, 2, 1, 2, 2, 4, 0, 7, 1, 3, 3})
	// One waiter, MaxWatches 3: five arms evict twice, a pending write
	// completes the wait at once, an injected wake, a checkpoint restored
	// over the live engine.
	f.Add([]byte{12, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 3, 4, 2, 0, 0, 0, 2, 0, 6, 0, 7, 0})
	// DMA invisible: a DMA and an MSI write are dropped, then a CPU write
	// wakes both re-arming waiters; a cancel; a checkpoint.
	f.Add([]byte{19, 0b0101, 0, 0, 0, 0, 1, 2, 0, 2, 1, 4, 0, 4, 130, 3, 0, 5, 1, 7, 1})
	f.Fuzz(runMonitorOps)
}

// TestNestedWriteKeepsOuterBatch: a write wakes two blocked waiters; the
// first one's handler stores to a second address that two other waiters are
// blocked on, then re-arms and waits. The nested write's batch must not
// overwrite the outer batch, which still has a waiter to wake: delivery must
// match the model, round after round. From the second round on, the engine's
// wake-batch scratch has room for two, so a nested write that reused it
// would replace the outer batch's entries.
func TestNestedWriteKeepsOuterBatch(t *testing.T) {
	const x, y = 0x40, 0x80
	run := func(api monitorAPI) *side {
		// w1 stores to y and re-arms x; w2..w4 re-arm their home address.
		sd := &side{api: api}
		for i, home := range []int64{x, x, y, y} {
			b := wakeRearm
			if i == 0 {
				b = wakeStoreRearm
			}
			sd.ws = append(sd.ws, &scriptWaiter{sd: sd, id: i + 1, behaviour: b, home: home, other: y})
		}
		for _, w := range sd.ws {
			api.Arm(w, w.home)
			api.Wait(w)
		}
		for round := 0; round < 4; round++ {
			sd.log = append(sd.log, fmt.Sprintf("round %d", round))
			api.ObserveWrite(x, int64(round), mem.SrcCPU)
		}
		return sd
	}
	e := NewEngine()
	es := run(e)
	ms := run(newRefEngine(true, 0))
	if !slices.Equal(es.log, ms.log) {
		t.Fatalf("wake sequences differ\nengine %v\nmodel  %v", es.log, ms.log)
	}
	if a, b := es.observe(e.Counters()), ms.observe(ms.api.(*refEngine).n); a != b {
		t.Fatalf("state differs\nengine %s\nmodel  %s", a, b)
	}
	// Per round: w1, then w3 and w4 from the nested write, then w2.
	if got := e.Counters().Wakeups; got != 16 {
		t.Fatalf("wakeups = %d, want 16", got)
	}
}
