package desim

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

// refEngine is a container/heap implementation kept as the ordering
// oracle for differential fuzzing. Its observable contract — events fire
// in ascending (at, seq) order, past schedules clamp to now — is what
// Engine's hand-rolled heap must reproduce.
type refEngine struct {
	now   time.Duration
	seq   uint64
	queue refQueue
	steps uint64
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func(*refEngine)
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

func (e *refEngine) At(at time.Duration, fn func(*refEngine)) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.queue, refEvent{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d time.Duration, fn func(*refEngine)) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

func (e *refEngine) Run() time.Duration {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(refEvent)
		e.now = ev.at
		e.steps++
		ev.fn(e)
	}
	return e.now
}

func (e *refEngine) RunUntil(deadline time.Duration) time.Duration {
	for len(e.queue) > 0 {
		if e.queue[0].at > deadline {
			break
		}
		ev := heap.Pop(&e.queue).(refEvent)
		e.now = ev.at
		e.steps++
		ev.fn(e)
	}
	return e.now
}

// AdvanceTo mirrors Engine.AdvanceTo: fire everything strictly before
// t, then move the clock to t.
func (e *refEngine) AdvanceTo(t time.Duration) {
	e.RunUntil(t - 1)
	if t > e.now {
		e.now = t
	}
}

// fuzzOp is one decoded scheduling instruction. The fuzz input is a
// byte string decoded 5 bytes at a time: [kind, t0, t1, cascadeDelay,
// cascadeCount]. kind selects At vs After and whether the handler
// schedules follow-ups; times deliberately collide often (mod a small
// range) to stress same-timestamp batching.
type fuzzOp struct {
	after    bool
	at       time.Duration
	cascade  time.Duration
	children int
}

func decodeOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for i := 0; i+5 <= len(data) && len(ops) < 512; i += 5 {
		kind := data[i]
		t := (time.Duration(data[i+1])<<8 | time.Duration(data[i+2])) % 4096 * time.Microsecond
		cd := time.Duration(data[i+3]) % 16 * time.Microsecond
		n := int(data[i+4]) % 4
		ops = append(ops, fuzzOp{
			after:    kind&1 == 1,
			at:       t,
			cascade:  cd,
			children: n,
		})
	}
	return ops
}

// cut is where a differential run pauses: after the first wave of
// events is scheduled, the engine runs RunUntil(at) or AdvanceTo(at),
// the same schedule is queued again as a second wave (now relative to
// the paused clock, so some of it lands before events still pending),
// and Run drains everything. The zero cut is a plain Run.
type cut struct {
	kind cutKind
	at   time.Duration
}

type cutKind int

const (
	noCut cutKind = iota
	cutRunUntil
	cutAdvanceTo
)

func (c cut) String() string {
	switch c.kind {
	case cutRunUntil:
		return fmt.Sprintf("RunUntil(%v)", c.at)
	case cutAdvanceTo:
		return fmt.Sprintf("AdvanceTo(%v)", c.at)
	}
	return "Run"
}

// runEngine executes the decoded schedule on Engine, recording the
// (time, id) trace of every fired event and the engine state at the cut.
func runEngine(ops []fuzzOp, c cut) (trace []string, now time.Duration, steps uint64) {
	e := new(Engine)
	id := 0
	var mk func(op fuzzOp, depth int) Handler
	mk = func(op fuzzOp, depth int) Handler {
		myID := id
		id++
		return func(e *Engine) {
			trace = append(trace, fmt.Sprintf("%d@%d", myID, e.Now()))
			if depth < 2 {
				for c := 0; c < op.children; c++ {
					e.After(op.cascade*time.Duration(c), mk(op, depth+1))
				}
			}
		}
	}
	schedule := func() {
		for _, op := range ops {
			if op.after {
				e.After(op.at, mk(op, 0))
			} else {
				e.At(op.at, mk(op, 0))
			}
		}
	}
	schedule()
	if c.kind != noCut {
		if c.kind == cutRunUntil {
			e.RunUntil(c.at)
		} else {
			e.AdvanceTo(c.at)
		}
		trace = append(trace, fmt.Sprintf("cut: now %d pending %d steps %d", e.Now(), e.Pending(), e.Steps()))
		schedule()
	}
	now = e.Run()
	return trace, now, e.Steps()
}

// runReference executes the identical schedule on refEngine.
func runReference(ops []fuzzOp, c cut) (trace []string, now time.Duration, steps uint64) {
	e := new(refEngine)
	id := 0
	var mk func(op fuzzOp, depth int) func(*refEngine)
	mk = func(op fuzzOp, depth int) func(*refEngine) {
		myID := id
		id++
		return func(e *refEngine) {
			trace = append(trace, fmt.Sprintf("%d@%d", myID, e.now))
			if depth < 2 {
				for c := 0; c < op.children; c++ {
					e.After(op.cascade*time.Duration(c), mk(op, depth+1))
				}
			}
		}
	}
	schedule := func() {
		for _, op := range ops {
			if op.after {
				e.After(op.at, mk(op, 0))
			} else {
				e.At(op.at, mk(op, 0))
			}
		}
	}
	schedule()
	if c.kind != noCut {
		if c.kind == cutRunUntil {
			e.RunUntil(c.at)
		} else {
			e.AdvanceTo(c.at)
		}
		trace = append(trace, fmt.Sprintf("cut: now %d pending %d steps %d", e.now, len(e.queue), e.steps))
		schedule()
	}
	now = e.Run()
	return trace, now, e.steps
}

func diffEngines(t *testing.T, data []byte, c cut) {
	t.Helper()
	ops := decodeOps(data)
	et, en, es := runEngine(ops, c)
	rt, rn, rs := runReference(ops, c)
	for i := range et {
		if i >= len(rt) {
			break
		}
		if et[i] != rt[i] {
			t.Fatalf("%v: trace diverges at %d: engine %q, reference %q", c, i, et[i], rt[i])
		}
	}
	if len(et) != len(rt) {
		t.Fatalf("%v: engine traced %d entries, reference %d", c, len(et), len(rt))
	}
	if en != rn {
		t.Fatalf("%v: final time: engine %v, reference %v", c, en, rn)
	}
	if es != rs {
		t.Fatalf("%v: steps: engine %d, reference %d", c, es, rs)
	}
}

// FuzzEventOrder differentially fuzzes Engine against the container/heap
// reference: same schedule, same trace, same final clock, same step
// count — for full runs, and for runs cut by RunUntil or AdvanceTo at an
// input-derived time and then given a second wave of events before
// draining.
func FuzzEventOrder(f *testing.F) {
	// Seed corpus: empty, single event, heavy timestamp collisions,
	// cascades at same instant, a wide spread of many events, and a
	// mixed schedule exercising At-in-the-past clamping.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0})
	f.Add([]byte{1, 0, 5, 0, 3, 1, 0, 5, 0, 3, 0, 0, 5, 0, 3})
	f.Add([]byte{0, 0, 9, 0, 3, 0, 0, 9, 0, 3, 0, 0, 9, 0, 3, 0, 0, 9, 0, 3})
	f.Add([]byte{0, 15, 255, 15, 2, 0, 0, 1, 1, 1, 1, 7, 7, 3, 3, 0, 15, 0, 0, 0})
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 64; i++ {
			b = append(b, byte(i%2), byte(i), byte(i*37), byte(i%16), byte(i%4))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		diffEngines(t, data, cut{})
		// Also check partial execution followed by more scheduling: the
		// cut point is derived from the input so it varies.
		var dl time.Duration
		for _, b := range data {
			dl = dl*3 + time.Duration(b)
		}
		at := (dl % 4096) * time.Microsecond
		diffEngines(t, data, cut{cutRunUntil, at})
		diffEngines(t, data, cut{cutAdvanceTo, at})
	})
}

// TestEngineMatchesHeapReference runs the differential check over a
// deterministic schedule family, so the equivalence holds in plain `go
// test` runs even when fuzzing is never invoked.
func TestEngineMatchesHeapReference(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for trial := 0; trial < 50; trial++ {
		n := 5 * (trial + 1)
		data := make([]byte, n)
		for i := range data {
			data[i] = next()
		}
		at := time.Duration(trial) * 257 * time.Microsecond
		diffEngines(t, data, cut{})
		diffEngines(t, data, cut{cutRunUntil, at})
		diffEngines(t, data, cut{cutAdvanceTo, at})
	}
}
