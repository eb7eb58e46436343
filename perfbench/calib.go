package main

import "time"

// Host speed on a shared virtual machine drifts by tens of percent over
// minutes: other tenants take the physical cores (steal time), share their
// caches and memory bandwidth, and change the clock. A pass's host time
// moves with that drift, so the benchmark times a fixed calibration kernel
// between the program's calls and scales each call's host time by how slow
// the kernel ran around it. The kernel is frozen in this file and shares
// no code with the program, so a change to the program moves the scaled
// times and a change of host speed does not.
//
// The kernel has two halves of about equal time. One is a small
// discrete-event simulation, the kind of work the program does: a binary
// heap of pending events over a 512 KB table of entities, with map
// lookups, an index into a node pool and a data-dependent switch per
// event; it tracks cache and memory contention. The other is a
// register-only xorshift loop; it tracks clock and core sharing and is
// steady at the millisecond scale, where the first half is not. Neither
// allocates, so the kernel adds nothing to a pass's heap figures or
// collector work.

// calibEvents and calibSpins size one calibration chunk, about 25 ms of
// host time on the reference host.
const (
	calibEvents   = 75_000
	calibSpins    = 5_000_000
	calibSegments = 10
)

// calibRefS is the host time of one calibration chunk on the reference
// host, a 2-vCPU Intel Xeon virtual machine. A unit's scaled time is its
// host time × calibRefS / the chunk time measured around it: the seconds
// it would have taken on the reference host.
const calibRefS = 0.025

// calibEvery is how much of the program's host time may pass between two
// calibration chunks. Shorter tracks faster drift and costs more chunks.
const calibEvery = 300 * time.Millisecond

// calibWindow is how many chunks on each side of a unit the median that
// scales it takes in: six chunks, about two seconds of the run.
const calibWindow = 3

type calEntity struct {
	state, count uint64
	link         int32
	_            [5]uint64
}

type calEvent struct {
	at  uint64
	who uint32
}

// calibrator holds the kernel's tables, allocated once so that every chunk
// does the same work on the same memory.
type calibrator struct {
	ents []calEntity
	pool []calEntity
	m    map[uint32]uint64
	heap []calEvent
	sink uint64
}

func newCalibrator() *calibrator {
	return &calibrator{
		ents: make([]calEntity, 1<<13),
		pool: make([]calEntity, 1<<12),
		m:    make(map[uint32]uint64, 4096),
		heap: make([]calEvent, 0, 256),
	}
}

// chunk runs one calibration chunk from a reset state, in calibSegments
// equal segments. It returns the chunk's host time, and steady: the median
// segment's time × calibSegments, the chunk time without the preemptions
// and bursts of steal that a few segments catch. Units long enough to
// catch such bursts themselves are scaled by the total, microsecond-scale
// set-up timings by steady.
func (c *calibrator) chunk() (total, steady time.Duration) {
	t0 := time.Now()
	clear(c.ents)
	clear(c.pool)
	clear(c.m)
	c.heap = c.heap[:0]
	x := uint64(88172645463325252)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := 0; i < cap(c.heap); i++ {
		c.push(calEvent{at: rnd() % 1000, who: uint32(rnd() % uint64(len(c.ents)))})
	}
	var segs [calibSegments]time.Duration
	for s := range segs {
		s0 := time.Now()
		for i := 0; i < calibEvents/calibSegments; i++ {
			top := c.pop()
			e := &c.ents[top.who]
			e.count++
			e.state = e.state*6364136223846793005 + top.at
			switch e.state >> 62 {
			case 0:
				c.m[top.who&4095] += e.state
			case 1:
				e.link = int32(e.state>>20) & int32(len(c.pool)-1)
				c.pool[e.link].state += e.state
			case 2:
				e.state ^= c.m[top.who&4095]
			default:
				e.state += c.pool[e.link].state
			}
			next := (uint64(top.who) + rnd()) % uint64(len(c.ents))
			c.push(calEvent{at: top.at + 1 + (e.state>>40)%1000, who: uint32(next)})
		}
		for i := 0; i < calibSpins/calibSegments; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		segs[s] = time.Since(s0)
	}
	c.sink += c.ents[0].state + uint64(len(c.m)) + x
	total = time.Since(t0)
	// Insertion sort: ten values, and no allocation.
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j] < segs[j-1]; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
	mid := (segs[calibSegments/2-1] + segs[calibSegments/2]) / 2
	return total, mid * calibSegments
}

func (c *calibrator) push(e calEvent) {
	h := append(c.heap, e)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if h[p].at <= h[j].at {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	c.heap = h
}

func (c *calibrator) pop() calEvent {
	h := c.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for j := 0; ; {
		l := 2*j + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && h[r].at < h[l].at {
			l = r
		}
		if h[j].at <= h[l].at {
			break
		}
		h[j], h[l] = h[l], h[j]
		j = l
	}
	c.heap = h
	return top
}
