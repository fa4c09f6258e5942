// Package desim is a minimal deterministic discrete-event simulation
// engine: an event queue ordered by simulated time with stable FIFO
// tie-breaking, on which the serve package simulates its servers and
// the HPL workload model schedules its panels. Determinism matters
// because the repository's experiments must reproduce bit-for-bit under
// a fixed seed (Rule 9 applied to ourselves).
//
// The queue is a calendar queue (Brown 1988): events hash into time
// buckets of adaptive width, insertion is O(1) amortized, and dequeue
// harvests whole same-timestamp batches from the current bucket instead
// of sifting a binary heap once per event. The observable order is
// exactly the heap order — ascending (time, insertion seq) — which the
// differential fuzz target (FuzzEventOrder) pins against a reference
// heap implementation.
package desim

import (
	"cmp"
	"slices"
	"time"
)

// Handler is an event callback, invoked with the engine so it can
// schedule follow-up events.
type Handler func(e *Engine)

type event struct {
	at  time.Duration
	seq uint64 // insertion order, breaks time ties deterministically
	fn  Handler
}

const (
	minBuckets   = 64
	defaultWidth = int64(time.Microsecond)
	// bucketRoom is how many events each bucket of a fresh calendar holds
	// before its first append allocates.
	bucketRoom = 4
)

// Engine is a single-threaded discrete-event simulator. The zero value
// is ready to use at simulated time zero.
type Engine struct {
	now   time.Duration
	seq   uint64
	steps uint64

	// Calendar queue state. Events live in buckets[day&(len-1)] where
	// day = at/width; curDay is the dequeue cursor (every queued event
	// has day >= curDay after a harvest).
	buckets [][]event
	width   int64 // bucket width in nanoseconds
	curDay  int64
	size    int

	batch []event // same-timestamp harvest scratch, reused across steps
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps returns the number of events processed so far. Only events the
// engine fires count: work a caller runs itself between AdvanceTo calls
// is invisible here. No package outside desim reads it; it exists for
// the engine's own tests.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.size }

// At schedules fn to run at absolute simulated time at. Events scheduled
// in the past run at the current time (time never goes backwards).
func (e *Engine) At(at time.Duration, fn Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.insert(event{at: at, seq: e.seq, fn: fn})
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
	for e.size > 0 {
		e.stepBatch(1<<62 - 1)
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline, leaving later
// events queued, and returns the clock, which stays at the timestamp of
// the last event fired (it is not moved on to the deadline).
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	for e.size > 0 {
		if !e.stepBatch(deadline) {
			break
		}
	}
	return e.now
}

// AdvanceTo processes every event with a timestamp strictly before t,
// then sets the clock to t (if t is later). Events at exactly t stay
// queued, so work the caller does at t runs before them — exactly as if
// it were an event inserted ahead of every other event at t. This lets
// a caller feed an in-order external event stream (open-loop arrivals)
// past the calendar without queueing it.
func (e *Engine) AdvanceTo(t time.Duration) {
	for e.size > 0 {
		if !e.stepBatch(t - 1) {
			break
		}
	}
	if t > e.now {
		e.now = t
	}
}

func (e *Engine) init() {
	// Carve every bucket from one backing array: a calendar holding a few
	// events at a time then allocates twice in all, not once for every
	// bucket the events happen to hash into.
	room := make([]event, minBuckets*bucketRoom)
	e.buckets = make([][]event, minBuckets)
	for i := range e.buckets {
		e.buckets[i] = room[i*bucketRoom : i*bucketRoom : (i+1)*bucketRoom]
	}
	e.width = defaultWidth
	e.curDay = int64(e.now) / e.width
}

func (e *Engine) insert(ev event) {
	if e.buckets == nil {
		e.init()
	}
	if e.size >= 2*len(e.buckets) {
		e.resize(2 * len(e.buckets))
	}
	day := int64(ev.at) / e.width
	if day < e.curDay {
		// A stopped RunUntil/AdvanceTo leaves the cursor on the day of
		// the first event it did not fire; an event scheduled afterwards
		// may be earlier, and must not land behind the cursor.
		e.curDay = day
	}
	idx := day & int64(len(e.buckets)-1)
	e.buckets[idx] = append(e.buckets[idx], ev)
	e.size++
}

// resize rebuilds the calendar with n buckets and a width matched to the
// current event spread, so the average bucket holds O(1) events of the
// current "day". All decisions are pure functions of the queue contents,
// keeping replay deterministic.
func (e *Engine) resize(n int) {
	var all []event
	for _, b := range e.buckets {
		all = append(all, b...)
	}
	// Width estimate: spread of pending timestamps divided by count, so
	// one day holds roughly one event.
	minAt, maxAt := int64(1<<62-1), int64(0)
	for _, ev := range all {
		if int64(ev.at) < minAt {
			minAt = int64(ev.at)
		}
		if int64(ev.at) > maxAt {
			maxAt = int64(ev.at)
		}
	}
	w := defaultWidth
	if len(all) > 1 && maxAt > minAt {
		w = (maxAt - minAt) / int64(len(all))
		if w < 1 {
			w = 1
		}
	}
	e.buckets = make([][]event, n)
	e.width = w
	e.curDay = int64(e.now) / w
	if len(all) > 0 && minAt/w < e.curDay {
		// Guard: never strand an event behind the cursor (cannot happen
		// with monotonic now, but cheap to make structurally impossible).
		e.curDay = minAt / w
	}
	mask := int64(n - 1)
	for _, ev := range all {
		idx := (int64(ev.at) / e.width) & mask
		e.buckets[idx] = append(e.buckets[idx], ev)
	}
}

// findDay advances the cursor to the day holding the earliest queued
// event and returns that event's timestamp. It scans forward bucket by
// bucket; after a fruitless full revolution (all events more than one
// calendar year away) it jumps straight to the global minimum.
func (e *Engine) findDay() time.Duration {
	n := int64(len(e.buckets))
	mask := n - 1
	for scanned := int64(0); scanned < n; scanned++ {
		var best time.Duration = -1
		for _, ev := range e.buckets[e.curDay&mask] {
			if int64(ev.at)/e.width == e.curDay && (best < 0 || ev.at < best) {
				best = ev.at
			}
		}
		if best >= 0 {
			return best
		}
		e.curDay++
	}
	// Long jump: find the global minimum directly.
	var best time.Duration = -1
	for _, b := range e.buckets {
		for _, ev := range b {
			if best < 0 || ev.at < best {
				best = ev.at
			}
		}
	}
	e.curDay = int64(best) / e.width
	return best
}

// stepBatch harvests every event sharing the earliest timestamp <=
// deadline and runs them in insertion order — one sweep per simulated
// instant rather than one heap pop per event. Handlers that schedule
// more work at the same instant extend the batch (still in seq order),
// exactly matching reference heap semantics. Returns false if the
// earliest event lies beyond the deadline.
func (e *Engine) stepBatch(deadline time.Duration) bool {
	at := e.findDay()
	if at > deadline {
		return false
	}
	e.now = at
	mask := int64(len(e.buckets) - 1)
	for {
		// Harvest all events at `at` from the current-day bucket. The
		// bucket is re-fetched each pass: handlers may have inserted (and
		// possibly resized) during the previous pass.
		b := e.buckets[e.curDay&mask]
		e.batch = e.batch[:0]
		kept := b[:0]
		for _, ev := range b {
			if ev.at == at {
				e.batch = append(e.batch, ev)
			} else {
				kept = append(kept, ev)
			}
		}
		if len(e.batch) == 0 {
			return true
		}
		e.buckets[e.curDay&mask] = kept
		e.size -= len(e.batch)
		// Bucket order is insertion order except after a resize, which
		// may interleave; restore the FIFO contract explicitly.
		if len(e.batch) > 1 {
			slices.SortFunc(e.batch, func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
		}
		for i := range e.batch {
			e.steps++
			e.batch[i].fn(e)
		}
		if e.size < len(e.buckets)/4 && len(e.buckets) > minBuckets {
			e.resize(len(e.buckets) / 2)
			mask = int64(len(e.buckets) - 1)
		}
	}
}
