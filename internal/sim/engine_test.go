package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.MustSchedule(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOWithinSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(7, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	e.MustSchedule(10, func() {
		if e.Now() != 10 {
			t.Errorf("Now() = %v inside handler, want 10", e.Now())
		}
	})
	e.Run()
	if e.Now() != 10 {
		t.Errorf("Now() = %v after run, want 10", e.Now())
	}
	if e.Fired() != 1 {
		t.Errorf("Fired() = %d, want 1", e.Fired())
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.MustSchedule(5, func() {
		mustPanic(t, "scheduling in the past", func() { e.MustSchedule(4, func() {}) })
	})
	e.Run()
}

func TestScheduleNilHandlerRejected(t *testing.T) {
	e := NewEngine()
	mustPanic(t, "scheduling a nil handler", func() { e.MustSchedule(1, nil) })
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after a refused schedule, want 0", e.Pending())
	}
}

func TestScheduleAtCurrentTime(t *testing.T) {
	e := NewEngine()
	var order []string
	e.MustSchedule(5, func() {
		order = append(order, "outer")
		e.MustSchedule(5, func() { order = append(order, "inner") })
	})
	e.MustSchedule(6, func() { order = append(order, "later") })
	e.Run()
	want := []string{"outer", "inner", "later"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.MustSchedule(3, func() { fired = true })
	if !e.Cancel(ev) {
		t.Error("Cancel returned false for a pending event")
	}
	if e.Cancel(ev) {
		t.Error("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if ev.Pending() {
		t.Error("Pending() = true after cancel")
	}
}

func TestCancelZeroHandle(t *testing.T) {
	e := NewEngine()
	if e.Cancel(Event{}) {
		t.Error("Cancel(Event{}) returned true")
	}
	if (Event{}).Pending() {
		t.Error("zero handle Pending() = true")
	}
}

func TestCancelFromHandler(t *testing.T) {
	e := NewEngine()
	fired := false
	victim := e.MustSchedule(10, func() { fired = true })
	e.MustSchedule(5, func() { e.Cancel(victim) })
	e.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

// Property: for any set of event times, dispatch order is the sorted order,
// with ties broken by scheduling sequence.
func TestDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r % 50) // force ties
			e.MustSchedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset never fires those events and fires
// everything else exactly once.
func TestCancelSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		e := NewEngine()
		const n = 100
		fired := make([]int, n)
		events := make([]Event, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = e.MustSchedule(Time(rng.Intn(30)), func() { fired[i]++ })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(events[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			want := 1
			if cancelled[i] {
				want = 0
			}
			if fired[i] != want {
				t.Fatalf("trial %d: event %d fired %d times, want %d", trial, i, fired[i], want)
			}
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.MustSchedule(Time(j%97), func() {})
		}
		e.Run()
	}
}

func TestAdvanceToEquivalentToUpfrontScheduling(t *testing.T) {
	// The invariant behind the step-driven session driver: arrivals made
	// as direct calls after AdvanceTo interleave exactly like arrivals
	// scheduled up front, before anything else.
	type firing struct {
		at Time
		id string
	}
	run := func(direct bool) []firing {
		e := NewEngine()
		var out []firing
		note := func(id string) Handler {
			return func() { out = append(out, firing{e.Now(), id}) }
		}
		arrivals := []Time{0, 2, 2, 4, 4}
		arrive := func(id string) {
			// Each arrival schedules a same-instant and a +2 follow-up,
			// creating time ties with later arrivals.
			out = append(out, firing{e.Now(), id})
			e.MustSchedule(e.Now(), note(id+"/now"))
			e.MustSchedule(e.Now()+2, note(id+"/later"))
		}
		for i, at := range arrivals {
			id := fmt.Sprintf("a%d", i)
			if direct {
				e.AdvanceTo(at)
				arrive(id)
			} else {
				e.MustSchedule(at, func() { arrive(id) })
			}
		}
		e.Run()
		return out
	}
	batch, step := run(false), run(true)
	if len(batch) != len(step) {
		t.Fatalf("batch fired %d events, step-driven %d", len(batch), len(step))
	}
	for i := range batch {
		if batch[i] != step[i] {
			t.Fatalf("dispatch diverged at %d: batch %v, step %v", i, batch[i], step[i])
		}
	}
}

func TestAdvanceToStopsBeforeTime(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) Handler { return func() { order = append(order, s) } }
	e.MustSchedule(1, note("before"))
	e.MustSchedule(2, note("at"))
	e.MustSchedule(3, note("later"))
	e.AdvanceTo(2)
	if got := fmt.Sprint(order); got != "[before]" {
		t.Fatalf("AdvanceTo(2) dispatched %v, want [before]", order)
	}
	// Advancing to the current instant dispatches nothing.
	e.AdvanceTo(2)
	if got := fmt.Sprint(order); got != "[before]" {
		t.Fatalf("AdvanceTo(Now()) dispatched %v, want [before]", order)
	}
	mustPanic(t, "advancing into the past", func() { e.AdvanceTo(1) })
	e.MustSchedule(4, func() {
		mustPanic(t, "AdvanceTo from a handler", func() { e.AdvanceTo(5) })
	})
	e.Run()
	if got := fmt.Sprint(order); got != "[before at later]" {
		t.Fatalf("Run after AdvanceTo dispatched %v, want [before at later]", order)
	}
}

func TestAdvanceToSetsClock(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.MustSchedule(at, func() { got = append(got, at) })
	}
	e.AdvanceTo(3)
	if len(got) != 2 {
		t.Fatalf("AdvanceTo(3) fired %d events, want 2", len(got))
	}
	if e.Now() != 3 || e.Pending() != 3 {
		t.Fatalf("clock %v with %d pending, want 3 with 3", e.Now(), e.Pending())
	}
	// Past the last event the queue drains and the clock still lands on
	// the target.
	e.AdvanceTo(100)
	if len(got) != 5 {
		t.Fatalf("AdvanceTo(100) fired %d events in all, want 5", len(got))
	}
	if e.Now() != 100 || e.Pending() != 0 {
		t.Fatalf("clock %v with %d pending, want 100 with 0", e.Now(), e.Pending())
	}
}
