// Package desim is a minimal deterministic discrete-event simulation
// engine: an event queue ordered by simulated time with stable FIFO
// tie-breaking, on which the serve package simulates its servers and
// the HPL workload model schedules its panels. Determinism matters
// because the repository's experiments must reproduce bit-for-bit under
// a fixed seed (Rule 9 applied to ourselves).
//
// The queue is a binary min-heap on (time, insertion seq), O(log n) per
// event. Its callers keep n tiny: serve feeds open-loop arrivals past it
// with AdvanceTo, so it holds only in-flight completions and dispatch
// wakes (one to three events in every preset), and HPL queues one event
// per Run. The differential fuzz target (FuzzEventOrder) pins the order
// against a container/heap reference.
package desim

import "time"

// Handler is an event callback, invoked with the engine so it can
// schedule follow-up events.
type Handler func(e *Engine)

type event struct {
	at  time.Duration
	seq uint64 // insertion order, breaks time ties deterministically
	fn  Handler
}

// before reports whether a fires ahead of b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. The zero value
// is ready to use at simulated time zero.
type Engine struct {
	now   time.Duration
	seq   uint64
	steps uint64
	queue []event // binary min-heap: queue[0] is the next event to fire
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps returns the number of events processed so far. Only events the
// engine fires count: work a caller runs itself between AdvanceTo calls
// is invisible here. No package outside desim reads it; it exists for
// the engine's own tests.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute simulated time at. Events scheduled
// in the past run at the current time (time never goes backwards).
func (e *Engine) At(at time.Duration, fn Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.queue = append(e.queue, event{at: at, seq: e.seq, fn: fn})
	e.up(len(e.queue) - 1)
}

// After schedules fn to run d after the current simulated time.
func (e *Engine) After(d time.Duration, fn Handler) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Run processes events until the queue drains, returning the final
// simulated time.
func (e *Engine) Run() time.Duration {
	for len(e.queue) > 0 {
		e.step()
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline, leaving later
// events queued, and returns the clock, which stays at the timestamp of
// the last event fired (it is not moved on to the deadline).
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
	}
	return e.now
}

// AdvanceTo processes every event with a timestamp strictly before t,
// then sets the clock to t (if t is later). Events at exactly t stay
// queued, so work the caller does at t runs before them — exactly as if
// it were an event inserted ahead of every other event at t. This lets
// a caller feed an in-order external event stream (open-loop arrivals)
// past the queue without queueing it.
func (e *Engine) AdvanceTo(t time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at < t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

// step pops the earliest event, moves the clock to it and runs it.
func (e *Engine) step() {
	ev := e.queue[0]
	last := len(e.queue) - 1
	e.queue[0] = e.queue[last]
	e.queue[last] = event{} // drop the handler so it can be collected
	e.queue = e.queue[:last]
	if last > 0 {
		e.down(0)
	}
	e.now = ev.at
	e.steps++
	ev.fn(e)
}

// up sifts queue[i] toward the root until its parent fires first.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// down sifts queue[i] toward the leaves until both children fire after it.
func (e *Engine) down(i int) {
	q := e.queue
	ev := q[i]
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&ev) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = ev
}
