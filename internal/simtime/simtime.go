// Package simtime implements a deterministic discrete-event simulation
// kernel: a virtual clock, an event queue ordered by (time, insertion
// sequence), and cancellable timers.
//
// The radio, link and browser of every simulated phone run on a
// simtime.Clock instead of the wall clock, which makes experiments exactly
// reproducible and orders of magnitude faster than real time. The capacity
// model's Monte-Carlo has only two kinds of event, so it runs its own
// allocation-free loop in the same (time, sequence) order; its tests keep a
// simtime implementation as the oracle that loop must match.
package simtime

import (
	"fmt"
	"time"
)

// Clock is a virtual clock driving a discrete-event simulation.
//
// The zero value is not usable; construct clocks with NewClock. A Clock is
// not safe for concurrent use: simulations are single-threaded by design so
// that event order is deterministic.
type Clock struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
	// pending counts scheduled, not-yet-fired, not-cancelled events. It is
	// maintained on schedule/fire/cancel so Pending is O(1); cancelled
	// events still occupying the heap are already excluded.
	pending int
}

// NewClock returns a clock positioned at time zero with an empty event queue.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time (elapsed since simulation start).
func (c *Clock) Now() time.Duration {
	return c.now
}

// Pending returns the number of scheduled, not-yet-fired, not-cancelled
// events.
func (c *Clock) Pending() int {
	return c.pending
}

// Reset returns the clock to time zero with an empty queue, dropping every
// pending event. Callbacks of dropped events never run; outstanding Event
// handles stay valid but are permanently detached (cancelling them is a
// no-op). Session pools use Reset to recycle a finished simulation.
func (c *Clock) Reset() {
	for i := range c.queue {
		if ev := c.queue[i].ev; ev != nil {
			// Detach the handle so a retained pointer cannot touch the
			// recycled clock; mark it cancelled so Cancel stays a no-op.
			ev.cancelled = true
			ev.clock = nil
		}
		if tm := c.queue[i].tm; tm != nil {
			// Timers stay bound to the clock and usable after Reset, but any
			// pending firing is dropped with the queue.
			tm.armed = false
			tm.inHeap = false
		}
		c.queue[i].fn = nil
		c.queue[i].ev = nil
		c.queue[i].tm = nil
	}
	c.queue = c.queue[:0]
	c.now = 0
	c.seq = 0
	c.pending = 0
}

// schedule validates and enqueues one entry, returning its heap slot inputs.
func (c *Clock) schedule(at time.Duration, fn func(), ev *Event) error {
	if at < c.now {
		return fmt.Errorf("simtime: schedule at %v before now %v", at, c.now)
	}
	if fn == nil {
		return fmt.Errorf("simtime: schedule nil callback at %v", at)
	}
	c.queue.pushEntry(entry{at: at, seq: c.seq, fn: fn, ev: ev})
	c.seq++
	c.pending++
	return nil
}

// ScheduleAt schedules fn to run at the absolute virtual time at. Scheduling
// in the past (before Now) is an error: discrete-event simulations must never
// travel backwards.
func (c *Clock) ScheduleAt(at time.Duration, fn func()) (*Event, error) {
	ev := &Event{at: at, clock: c}
	if err := c.schedule(at, fn, ev); err != nil {
		return nil, err
	}
	return ev, nil
}

// After schedules fn to run d after the current virtual time. A negative d is
// treated as zero so callers can pass computed (possibly slightly negative)
// durations without a guard.
func (c *Clock) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	ev, err := c.ScheduleAt(c.now+d, fn)
	if err != nil {
		// Unreachable: now+d >= now and fn checked below by ScheduleAt.
		panic(err)
	}
	return ev
}

// Defer schedules fn like After but returns no handle: the event cannot be
// cancelled or inspected. Hot paths that never retain the handle use Defer —
// it allocates nothing beyond the queue slot, which the steady-state
// simulation reuses.
func (c *Clock) Defer(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if err := c.schedule(c.now+d, fn, nil); err != nil {
		// Unreachable: now+d >= now; nil fn panics as After always has.
		panic(err)
	}
}

// Step runs the earliest pending event and advances the clock to its time.
// It reports whether an event ran (false means the queue is empty).
func (c *Clock) Step() bool {
	for c.queue.Len() > 0 {
		e := c.queue.popEntry()
		if e.ev != nil && e.ev.cancelled {
			// Already excluded from pending when it was cancelled.
			continue
		}
		if e.tm != nil {
			t := e.tm
			if !t.tracks(&e) {
				// Superseded by an entry for an earlier deadline.
				continue
			}
			t.inHeap = false
			if !t.armed {
				// Disarmed while queued: garbage entry, drop silently.
				continue
			}
			if t.deadline > e.at {
				// The deadline moved while the entry was queued; requeue at
				// the real deadline under the seq reserved by the last Arm,
				// so the firing order is exactly that of an eager re-push.
				t.push()
				continue
			}
			c.now = e.at
			t.armed = false
			c.pending--
			t.fn()
			return true
		}
		c.now = e.at
		if e.ev != nil {
			e.ev.fired = true
		}
		c.pending--
		e.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunUntil executes all events scheduled at or before deadline, then advances
// the clock to deadline (even if the queue emptied earlier). Events scheduled
// beyond the deadline stay queued.
func (c *Clock) RunUntil(deadline time.Duration) {
	for len(c.queue) > 0 {
		next := &c.queue[0]
		if next.ev != nil && next.ev.cancelled {
			c.queue.popEntry()
			continue
		}
		if tm := next.tm; tm != nil {
			if !tm.tracks(next) {
				c.queue.popEntry()
				continue
			}
			if !tm.armed {
				tm.inHeap = false
				c.queue.popEntry()
				continue
			}
			if tm.deadline > next.at {
				// Stale entry for a timer whose deadline moved later; requeue
				// it here so the bound check below sees the real firing time.
				c.queue.popEntry()
				tm.push()
				continue
			}
		}
		if next.at > deadline {
			break
		}
		c.Step()
	}
	if deadline > c.now {
		c.now = deadline
	}
}

// RunFor executes events for d of virtual time starting from Now.
func (c *Clock) RunFor(d time.Duration) {
	c.RunUntil(c.now + d)
}

// Event is a handle to a scheduled callback.
type Event struct {
	at        time.Duration
	clock     *Clock
	cancelled bool
	fired     bool
}

// At returns the virtual time the event is (or was) scheduled for.
func (e *Event) At() time.Duration {
	return e.at
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually cancelled by this call.
func (e *Event) Cancel() bool {
	if e == nil || e.fired || e.cancelled {
		return false
	}
	e.cancelled = true
	if e.clock != nil {
		e.clock.pending--
	}
	return true
}

// Fired reports whether the event callback has run.
func (e *Event) Fired() bool {
	return e.fired
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool {
	return e.cancelled
}

// Timer is a re-armable deadline bound to one callback. Unlike After, which
// pushes a fresh heap entry per call, re-arming a Timer to a later deadline
// while its previous entry is still queued only moves the deadline: the
// stale entry re-queues itself when it surfaces. Re-arming to an earlier
// deadline pushes a fresh entry and orphans the queued one, which is
// dropped when it surfaces. Each Arm still reserves an insertion sequence
// number, so the eventual firing order is bit-identical to cancelling and
// re-pushing eagerly — the RRC inactivity timers re-arm on every transfer,
// and this keeps them from flooding the queue with cancelled entries.
//
// An armed Timer counts as one pending event, like an outstanding After.
type Timer struct {
	clock    *Clock
	fn       func()
	deadline time.Duration
	seq      uint64
	armed    bool
	// inHeap reports a queued entry the timer tracks; qAt and qSeq identify
	// it among orphaned entries of the same timer.
	inHeap bool
	qAt    time.Duration
	qSeq   uint64
}

// NewTimer creates a disarmed timer that runs fn when it fires.
func (c *Clock) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("simtime: nil timer callback")
	}
	return &Timer{clock: c, fn: fn}
}

// Arm (re)schedules the timer to fire d after now, replacing any earlier
// deadline. A negative d is treated as zero.
func (t *Timer) Arm(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c := t.clock
	t.deadline = c.now + d
	t.seq = c.seq
	c.seq++
	if !t.armed {
		t.armed = true
		c.pending++
	}
	if !t.inHeap || t.deadline < t.qAt {
		t.push()
	}
}

// push queues an entry at the timer's deadline and sequence and tracks it.
func (t *Timer) push() {
	t.clock.queue.pushEntry(entry{at: t.deadline, seq: t.seq, fn: t.fn, tm: t})
	t.inHeap, t.qAt, t.qSeq = true, t.deadline, t.seq
}

// tracks reports whether e is the timer's tracked entry rather than one it
// orphaned by re-arming earlier.
func (t *Timer) tracks(e *entry) bool {
	return t.inHeap && e.at == t.qAt && e.seq == t.qSeq
}

// Disarm stops the timer; a later Arm reuses it. Disarming an unarmed timer
// is a no-op.
func (t *Timer) Disarm() {
	if !t.armed {
		return
	}
	t.armed = false
	t.clock.pending--
}

// Armed reports whether the timer is scheduled to fire.
func (t *Timer) Armed() bool { return t.armed }

// Deadline returns the absolute virtual time of the next firing (only
// meaningful while Armed).
func (t *Timer) Deadline() time.Duration { return t.deadline }

// entry is one queued callback. Entries live inline in the heap slice so the
// (at, seq) comparisons that dominate simulation time touch only contiguous
// memory; ev is non-nil only for events scheduled through ScheduleAt/After,
// which hand out a cancellable handle; tm is non-nil only for Timer entries.
type entry struct {
	at  time.Duration
	seq uint64
	fn  func()
	ev  *Event
	tm  *Timer
}

// eventQueue is a min-heap ordered by (at, seq) so same-time events fire in
// scheduling order. The heap is hand-rolled over the concrete entry type:
// container/heap would box every entry through interface{} (one allocation
// per scheduled event) and its comparisons would go through dynamic dispatch,
// and the event queue is the single hottest structure in the simulator.
type eventQueue []entry

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

// pushEntry appends e and sifts it up.
func (q *eventQueue) pushEntry(e entry) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popEntry removes and returns the earliest entry.
func (q *eventQueue) popEntry() entry {
	h := *q
	n := len(h)
	e := h[0]
	h[0] = h[n-1]
	h[n-1] = entry{}
	h = h[:n-1]
	*q = h
	// Sift the moved element down.
	i := 0
	for {
		left := 2*i + 1
		if left >= len(h) {
			break
		}
		j := left
		if right := left + 1; right < len(h) && h.less(right, left) {
			j = right
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return e
}
