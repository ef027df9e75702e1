package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", c.Pending())
	}
}

func TestAfterRunsInOrder(t *testing.T) {
	c := NewClock()
	var order []int
	c.After(3*time.Second, func() { order = append(order, 3) })
	c.After(1*time.Second, func() { order = append(order, 1) })
	c.After(2*time.Second, func() { order = append(order, 2) })
	c.Run()
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", c.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.After(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestScheduleAtPastFails(t *testing.T) {
	c := NewClock()
	c.After(5*time.Second, func() {})
	c.Run()
	if _, err := c.ScheduleAt(time.Second, func() {}); err == nil {
		t.Fatal("ScheduleAt in the past succeeded, want error")
	}
}

func TestScheduleNilCallbackFails(t *testing.T) {
	c := NewClock()
	if _, err := c.ScheduleAt(time.Second, nil); err == nil {
		t.Fatal("ScheduleAt(nil) succeeded, want error")
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	c := NewClock()
	ran := false
	c.After(-time.Second, func() { ran = true })
	c.Run()
	if !ran {
		t.Fatal("negative After never ran")
	}
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := NewClock()
	ran := false
	ev := c.After(time.Second, func() { ran = true })
	if !ev.Cancel() {
		t.Fatal("Cancel() = false on pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel() = true, want false")
	}
	c.Run()
	if ran {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after cancel")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	c := NewClock()
	ev := c.After(time.Second, func() {})
	c.Run()
	if !ev.Fired() {
		t.Fatal("event did not fire")
	}
	if ev.Cancel() {
		t.Fatal("Cancel() after fire = true, want false")
	}
}

func TestCancelNilEventIsNoop(t *testing.T) {
	var ev *Event
	if ev.Cancel() {
		t.Fatal("Cancel() on nil event = true")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	c := NewClock()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		c.After(d, func() { fired = append(fired, d) })
	}
	c.RunUntil(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", c.Now())
	}
	c.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

func TestRunUntilAdvancesPastEmptyQueue(t *testing.T) {
	c := NewClock()
	c.RunUntil(10 * time.Second)
	if c.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", c.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	c := NewClock()
	c.After(time.Second, func() {})
	c.Run()
	c.RunFor(4 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", c.Now())
	}
}

func TestEventsScheduledDuringEvents(t *testing.T) {
	c := NewClock()
	var times []time.Duration
	c.After(time.Second, func() {
		times = append(times, c.Now())
		c.After(time.Second, func() {
			times = append(times, c.Now())
		})
	})
	c.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times = %v, want [1s 2s]", times)
	}
}

func TestStepReturnsFalseOnEmpty(t *testing.T) {
	c := NewClock()
	if c.Step() {
		t.Fatal("Step() = true on empty queue")
	}
}

func TestPendingCountsOnlyLive(t *testing.T) {
	c := NewClock()
	ev := c.After(time.Second, func() {})
	c.After(2*time.Second, func() {})
	ev.Cancel()
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
}

// TestPropertyEventOrder checks that arbitrary schedules always fire in
// non-decreasing time order, with ties broken by insertion sequence.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delaysMillis []uint16) bool {
		c := NewClock()
		var fired []time.Duration
		for _, m := range delaysMillis {
			c.After(time.Duration(m)*time.Millisecond, func() {
				fired = append(fired, c.Now())
			})
		}
		c.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyClockMonotonic checks that the clock never moves backwards
// under a random mix of scheduling and stepping.
func TestPropertyClockMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := NewClock()
	last := c.Now()
	for i := 0; i < 5000; i++ {
		switch rng.Intn(3) {
		case 0:
			c.After(time.Duration(rng.Intn(1000))*time.Millisecond, func() {})
		case 1:
			c.Step()
		default:
			c.RunFor(time.Duration(rng.Intn(100)) * time.Millisecond)
		}
		if c.Now() < last {
			t.Fatalf("clock moved backwards: %v -> %v", last, c.Now())
		}
		last = c.Now()
	}
}

// scanPending recounts pending events the way the pre-counter Pending did:
// a full queue scan skipping cancelled entries. It is the oracle the live
// counter is checked against.
func scanPending(c *Clock) int {
	n := 0
	for _, e := range c.queue {
		if e.ev == nil || !e.ev.cancelled {
			n++
		}
	}
	return n
}

// TestPendingCounterMatchesScan drives the clock through a random mix of
// scheduling, cancelling (including double-cancels and cancels of fired
// events), stepping and bounded runs, asserting after every operation that
// the O(1) Pending counter agrees with a full queue scan.
func TestPendingCounterMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := NewClock()
	var handles []*Event
	for i := 0; i < 10000; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			ev := c.After(time.Duration(rng.Intn(500))*time.Millisecond, func() {})
			handles = append(handles, ev)
		case 2:
			if len(handles) > 0 {
				// Cancel a random handle; repeats exercise the no-op paths
				// for already-cancelled and already-fired events.
				handles[rng.Intn(len(handles))].Cancel()
			}
		case 3:
			c.Step()
		default:
			c.RunFor(time.Duration(rng.Intn(200)) * time.Millisecond)
		}
		if got, want := c.Pending(), scanPending(c); got != want {
			t.Fatalf("op %d: Pending() = %d, queue scan = %d", i, got, want)
		}
	}
	c.Run()
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", got)
	}
	if got := scanPending(c); got != 0 {
		t.Fatalf("queue scan = %d after Run, want 0", got)
	}
}

// TestTimerRearmEarlier: re-arming a timer whose entry is still queued to an
// earlier deadline must fire it at the new deadline, exactly once.
func TestTimerRearmEarlier(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(tm *Timer)
	}{
		{"disarm then arm earlier", func(tm *Timer) { tm.Arm(10 * time.Second); tm.Disarm(); tm.Arm(time.Second) }},
		{"arm then arm earlier", func(tm *Timer) { tm.Arm(10 * time.Second); tm.Arm(time.Second) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClock()
			var fired []time.Duration
			tm := c.NewTimer(func() { fired = append(fired, c.Now()) })
			tc.arm(tm)
			c.Run()
			if len(fired) != 1 || fired[0] != time.Second {
				t.Fatalf("fired at %v, want once at 1s", fired)
			}
			if c.Pending() != 0 || tm.Armed() {
				t.Fatalf("after Run: Pending = %d, Armed = %v", c.Pending(), tm.Armed())
			}
		})
	}
	t.Run("run for across the earlier deadline", func(t *testing.T) {
		c := NewClock()
		var fired []time.Duration
		tm := c.NewTimer(func() { fired = append(fired, c.Now()) })
		tm.Arm(10 * time.Second)
		tm.Arm(time.Second)
		c.RunFor(2 * time.Second)
		if len(fired) != 1 || fired[0] != time.Second {
			t.Fatalf("RunFor(2s) fired at %v, want once at 1s", fired)
		}
		// The orphaned 10 s entry must not fire the timer again, and a re-arm
		// after it is dropped must still work.
		c.RunFor(20 * time.Second)
		tm.Arm(time.Second)
		c.Run()
		if want := []time.Duration{time.Second, 23 * time.Second}; len(fired) != 2 || fired[1] != want[1] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	})
}

// TestTimerMatchesEagerEvents drives timers through random Arm, Disarm,
// Step and RunFor operations and requires them to fire exactly when
// cancel-and-reschedule events would: same timer, same time, same order.
func TestTimerMatchesEagerEvents(t *testing.T) {
	const timers = 4
	type firing struct {
		id int
		at time.Duration
	}
	rng := rand.New(rand.NewSource(7))
	lazy, eager := NewClock(), NewClock()
	var lazyLog, eagerLog []firing
	tms := make([]*Timer, timers)
	evs := make([]*Event, timers)
	for i := range tms {
		i := i
		tms[i] = lazy.NewTimer(func() { lazyLog = append(lazyLog, firing{i, lazy.Now()}) })
	}
	for op := 0; op < 20000; op++ {
		i := rng.Intn(timers)
		switch rng.Intn(4) {
		case 0:
			// Distinct nanosecond deadlines keep same-instant ties out.
			d := time.Duration(rng.Int63n(int64(10 * time.Second)))
			tms[i].Arm(d)
			evs[i].Cancel()
			evs[i] = eager.After(d, func() { eagerLog = append(eagerLog, firing{i, eager.Now()}) })
		case 1:
			tms[i].Disarm()
			evs[i].Cancel()
		case 2:
			lazy.Step()
			eager.Step()
		default:
			d := time.Duration(rng.Int63n(int64(3 * time.Second)))
			lazy.RunFor(d)
			eager.RunFor(d)
		}
		if lazy.Pending() != eager.Pending() {
			t.Fatalf("op %d: Pending %d, eager %d", op, lazy.Pending(), eager.Pending())
		}
	}
	lazy.Run()
	eager.Run()
	if len(lazyLog) != len(eagerLog) {
		t.Fatalf("timers fired %d times, eager events %d", len(lazyLog), len(eagerLog))
	}
	for k := range lazyLog {
		if lazyLog[k] != eagerLog[k] {
			t.Fatalf("firing %d: timer %+v, eager %+v", k, lazyLog[k], eagerLog[k])
		}
	}
}
