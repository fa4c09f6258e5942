package desim

import (
	"fmt"
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var order []int
	e.At(30*time.Microsecond, func(*Engine) { order = append(order, 3) })
	e.At(10*time.Microsecond, func(*Engine) { order = append(order, 1) })
	e.At(20*time.Microsecond, func(*Engine) { order = append(order, 2) })
	end := e.Run()
	if end != 30*time.Microsecond {
		t.Errorf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Steps() != 3 {
		t.Errorf("steps = %d", e.Steps())
	}
}

func TestTiesBreakFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Microsecond, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestAfterAndCascade(t *testing.T) {
	var e Engine
	var fired []time.Duration
	e.After(5*time.Microsecond, func(en *Engine) {
		fired = append(fired, en.Now())
		en.After(7*time.Microsecond, func(en *Engine) {
			fired = append(fired, en.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5*time.Microsecond || fired[1] != 12*time.Microsecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var e Engine
	var at time.Duration = -1
	e.At(10*time.Microsecond, func(en *Engine) {
		// Scheduling in the past runs "now", never before.
		en.At(time.Microsecond, func(en *Engine) { at = en.Now() })
	})
	e.Run()
	if at != 10*time.Microsecond {
		t.Errorf("past event ran at %v, want clamped to 10µs", at)
	}
	// Negative delay clamps too.
	var e2 Engine
	e2.After(-time.Second, func(en *Engine) { at = en.Now() })
	e2.Run()
	if at != 0 {
		t.Errorf("negative After ran at %v", at)
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var count int
	for i := 1; i <= 5; i++ {
		e.At(time.Duration(i)*time.Millisecond, func(*Engine) { count++ })
	}
	e.RunUntil(3 * time.Millisecond)
	if count != 3 {
		t.Errorf("processed %d events by 3ms, want 3", count)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if count != 5 {
		t.Errorf("total = %d", count)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		var e Engine
		var log []time.Duration
		// A little event storm with equal times and cascades.
		for i := 0; i < 50; i++ {
			d := time.Duration(i%7) * time.Microsecond
			e.At(d, func(en *Engine) {
				log = append(log, en.Now())
				if en.Steps()%3 == 0 {
					en.After(2*time.Microsecond, func(en *Engine) {
						log = append(log, en.Now())
					})
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestScheduleAfterRunUntil(t *testing.T) {
	// RunUntil stops at an event beyond its deadline; an event scheduled
	// afterwards at an earlier time must still fire first.
	var e Engine
	var fired []time.Duration
	rec := func(en *Engine) { fired = append(fired, en.Now()) }
	e.At(time.Millisecond, rec)
	e.At(100*time.Millisecond, rec)
	e.RunUntil(50 * time.Millisecond)
	e.At(60*time.Millisecond, rec)
	e.Run()
	want := []time.Duration{time.Millisecond, 60 * time.Millisecond, 100 * time.Millisecond}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestAdvanceTo(t *testing.T) {
	// AdvanceTo fires events strictly before t, leaves events at t
	// queued, and moves the clock to t; work done at t then precedes
	// the queued events at t.
	var e Engine
	var order []string
	e.At(5*time.Microsecond, func(*Engine) { order = append(order, "a@5") })
	e.At(10*time.Microsecond, func(*Engine) { order = append(order, "b@10") })
	e.At(20*time.Microsecond, func(*Engine) { order = append(order, "c@20") })
	e.AdvanceTo(10 * time.Microsecond)
	if e.Now() != 10*time.Microsecond || e.Pending() != 2 || e.Steps() != 1 {
		t.Fatalf("after AdvanceTo(10µs): now %v pending %d steps %d", e.Now(), e.Pending(), e.Steps())
	}
	order = append(order, "x@10")
	e.After(3*time.Microsecond, func(*Engine) { order = append(order, "d@13") })
	e.AdvanceTo(7 * time.Microsecond) // earlier than now: the clock stays
	if e.Now() != 10*time.Microsecond {
		t.Fatalf("AdvanceTo into the past moved the clock to %v", e.Now())
	}
	e.Run()
	want := []string{"a@5", "x@10", "b@10", "d@13", "c@20"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}
