package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds since the start of the run.
type Time float64

// Infinity is a sentinel time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Handler is a callback invoked when its event fires. It runs at the event's
// timestamp; Engine.Now() returns that timestamp for the duration of the
// call.
type Handler func()

// event is the pooled queue record. Records are owned by the engine and
// recycled through its free list; the exported Event handle guards against
// observing a recycled record via the generation counter.
type event struct {
	time Time
	// seq is the engine's scheduling sequence number: the tie-break within
	// one virtual instant.
	seq     uint64
	gen     uint64
	index   int32 // heap index; -1 once removed
	handler Handler
}

// Event is a value handle to a scheduled callback, returned by
// MustSchedule. The zero value is a valid "no event" handle: it is never
// pending, and Cancel of it is a no-op returning false.
//
// Handles stay safe after the event fires or is cancelled, even though the
// underlying record is recycled for later MustSchedule calls: each handle
// carries the generation of the record it was minted for, and recycling
// bumps the generation, so a stale handle can never cancel — or observe —
// a reused record.
type Event struct {
	ev  *event
	gen uint64
}

// Pending reports whether the event is still queued to fire.
func (e Event) Pending() bool { return e.ev != nil && e.ev.gen == e.gen }

// Engine is a discrete event simulation kernel. The zero value is ready to
// use; NewEngine is provided for symmetry with the rest of the repository.
type Engine struct {
	now   Time
	seq   uint64
	queue []*event
	// free is the recycled-record pool; see the package comment's
	// performance model.
	free    []*event
	fired   uint64
	running bool
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// MustSchedule queues h to run at time t and returns a handle so the
// caller may Cancel it later. Scheduling at the current time is allowed:
// the event fires after the running handler returns, and after every event
// already queued for the same instant. It panics if t precedes Now() or h
// is nil — the simulation layers clamp times, so either is a programming
// bug.
//
//lint:hot
func (e *Engine) MustSchedule(t Time, h Handler) Event {
	if h == nil {
		panic("sim: nil handler")
	}
	if t < e.now {
		//lint:allow hotalloc — panic exit, never the steady-state path; callers clamp times
		panic(fmt.Sprintf("sim: event scheduled in the past: at %v, now %v", t, e.now))
	}
	ev := e.alloc()
	ev.time = t
	ev.seq = e.seq
	ev.handler = h
	e.seq++
	e.push(ev)
	return Event{ev: ev, gen: ev.gen}
}

// Cancel removes the event from the queue. Cancelling an already-fired or
// already-cancelled event — or the zero handle — is a no-op and returns
// false, even if the underlying record has since been recycled for a newer
// event (the generation check protects the newer event).
//
//lint:hot
func (e *Engine) Cancel(h Event) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return false
	}
	i := int(ev.index)
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i != n {
		e.queue[i] = last
		last.index = int32(i)
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	e.recycle(ev)
	return true
}

// Step dispatches the single earliest event. It returns false when the queue
// is empty.
//
//lint:hot
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.popMin()
	e.now = ev.time
	e.fired++
	h := ev.handler
	// Recycle before dispatch so the handler's own MustSchedule calls can
	// reuse the record immediately; h is already copied out.
	e.recycle(ev)
	h()
	return true
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// AdvanceTo dispatches every event strictly before t, then sets the clock
// to t. Events due at t itself stay queued, so whatever the caller does at
// t — a workload arrival, a quote — happens ahead of them, exactly as if it
// were an event scheduled at t before any of them. It panics if t precedes
// Now() or if called from inside a handler.
func (e *Engine) AdvanceTo(t Time) {
	if e.running {
		panic("sim: AdvanceTo re-entered")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: advance into the past: to %v, now %v", t, e.now))
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && e.queue[0].time < t {
		e.Step()
	}
	e.now = t
}

// alloc takes a record from the free list, or grows the pool.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//lint:allow hotalloc — pool growth: amortized, the free list satisfies steady state (bench-asserted 0 allocs/op)
	return &event{}
}

// recycle invalidates every outstanding handle to the record (generation
// bump), drops the handler reference so its closure can be collected, and
// returns the record to the free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.handler = nil
	ev.index = -1
	//lint:allow hotalloc — free-list growth is amortized; capacity plateaus at peak queue depth
	e.free = append(e.free, ev)
}

// less orders the heap by (time, seq): earlier time first, then scheduling
// order within a tie — the determinism contract.
func less(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push appends the record and restores the heap invariant.
func (e *Engine) push(ev *event) {
	ev.index = int32(len(e.queue))
	//lint:allow hotalloc — heap growth is amortized; capacity plateaus at peak queue depth
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// popMin removes and returns the root. The single-element case skips the
// sift entirely; otherwise the last leaf is moved to the root and sifted
// down once — no interface dispatch, no extra swaps.
func (e *Engine) popMin() *event {
	q := e.queue
	n := len(q) - 1
	top := q[0]
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.queue[0] = last
		last.index = 0
		e.siftDown(0)
	}
	top.index = -1
	return top
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !less(ev, p) {
			break
		}
		q[i] = p
		p.index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown restores the invariant below i, reporting whether the record
// moved (the container/heap Remove contract: if it did not move down, the
// caller tries up).
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		c := q[left]
		if right := left + 1; right < n && less(q[right], c) {
			child = right
			c = q[right]
		}
		if !less(c, ev) {
			break
		}
		q[i] = c
		c.index = int32(i)
		i = child
	}
	q[i] = ev
	ev.index = int32(i)
	return i > start
}
