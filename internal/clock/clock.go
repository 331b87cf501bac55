// Package clock is a deployment's one notion of time and of lifetime.
//
// Time: a Clock gives readings and stoppable timers. Meerkat uses time for
// loosely synchronized client clocks that propose transaction timestamps — it
// never depends on them for correctness, only for performance (badly skewed
// clocks make more transactions abort; the paper's testbed synchronizes them
// with PTP) — and for every wait of the protocol: request deadlines, backoffs,
// the sweep, group commit. Real reads the machine's monotonic clock, Skewed
// bends another clock's readings so tests can reproduce the badly synchronized
// regime, and Manual moves only when a test moves it.
//
// Lifetime: a Group is a clock plus stop-and-join. Everything that runs in the
// background is started through the Group of the handle whose Close promises
// to end it, and is gone when that Close returns.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies local time readings in nanoseconds and timers that run on
// them. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current local clock reading in nanoseconds.
	Now() int64
	// NewTimer returns a timer that is not running; Reset starts it.
	NewTimer() Timer
}

// Timer is a stoppable one-shot timer that can be armed again and again
// without allocating. When it fires it puts one tick into C's one slot; the
// tick stays there until it is received or the timer is armed again.
type Timer interface {
	// C is where the tick arrives.
	C() <-chan time.Time
	// Reset arms the timer to fire d from now, whatever state it was in: an
	// earlier arming is cancelled and an unreceived tick is discarded. A d of
	// zero or less fires it at once.
	Reset(d time.Duration)
	// Stop cancels the arming and reports whether there was one to cancel.
	Stop() bool
}

// Real is a Clock backed by the machine's monotonic clock.
type Real struct {
	base time.Time
}

// NewReal returns a Clock that reads the machine's monotonic clock, starting
// near zero (readings are offsets from construction time plus wall base).
// Using the wall clock as a base keeps readings comparable across processes
// on the same machine, matching the paper's PTP-synchronized deployment.
func NewReal() *Real {
	return &Real{base: time.Now()}
}

// Now implements Clock.
func (c *Real) Now() int64 {
	// UnixNano of the base plus the monotonic delta since construction: the
	// monotonic reading avoids wall-clock steps, the base keeps processes on
	// one machine loosely aligned.
	return c.base.UnixNano() + int64(time.Since(c.base))
}

// NewTimer implements Clock.
func (c *Real) NewTimer() Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return realTimer{t}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

func (r realTimer) Reset(d time.Duration) {
	if !r.t.Stop() {
		select {
		case <-r.t.C:
		default:
		}
	}
	r.t.Reset(d)
}

// Or returns c, or a new Real when c is nil: the nil-defaulting clock handle
// of the internal configs.
func Or(c Clock) Clock {
	if c == nil {
		return NewReal()
	}
	return c
}

// Skewed wraps a Clock with a static offset and a drift rate, simulating a
// client whose clock is out of sync. A drift of d means the skewed clock
// gains d nanoseconds per real second. Its timers are the inner clock's: a
// skewed client misreads the time of day, not the length of a wait.
type Skewed struct {
	inner  Clock
	offset int64
	drift  int64 // ns gained per second of inner time
	start  int64
}

// NewSkewed returns a clock reading inner.Now() + offset + drift*(elapsed
// seconds). offset and drift may be negative.
func NewSkewed(inner Clock, offset, driftPerSec int64) *Skewed {
	return &Skewed{inner: inner, offset: offset, drift: driftPerSec, start: inner.Now()}
}

// Now implements Clock.
func (c *Skewed) Now() int64 {
	t := c.inner.Now()
	elapsed := t - c.start
	return t + c.offset + (elapsed/int64(time.Second))*c.drift
}

// NewTimer implements Clock.
func (c *Skewed) NewTimer() Timer { return c.inner.NewTimer() }

// Manual is a Clock driven entirely by the test: its reading changes, and its
// timers fire, only inside Advance and Set. Safe for concurrent use.
//
// The firing rule, which a deterministic harness can build on: Advance(d)
// takes the armed timers whose deadline is no later than now+d one at a time,
// earliest deadline first and, among equal deadlines, the one armed first;
// for each it moves the reading to the deadline and fires it on the calling
// goroutine, before it looks for the next — so a timer armed while another
// fires (a periodic function re-arming itself) takes its place in the same
// order and, if due, fires in the same Advance. Then the reading moves to
// now+d and Advance returns. Firing a timer of a Group's Every or After runs
// its function, there and then, no goroutine involved; firing a NewTimer puts
// the tick into its channel, and what the receiver does with it runs on the
// receiver's goroutine. A timer armed with no delay fires inside Reset.
// Nothing fires at any other moment.
type Manual struct {
	now atomic.Int64

	adv sync.Mutex // serializes Advance and Set; held while timers fire

	mu    sync.Mutex // guards armed, seq, and every timer's arming
	armed []*manualTimer
	seq   uint64
}

// NewManual returns a Manual clock starting at start.
func NewManual(start int64) *Manual {
	m := &Manual{}
	m.now.Store(start)
	return m
}

// Now implements Clock.
func (m *Manual) Now() int64 { return m.now.Load() }

// Advance moves the clock forward by d nanoseconds, firing what comes due on
// the way, and returns the new reading. A timer's function must not call it.
func (m *Manual) Advance(d int64) int64 {
	m.adv.Lock()
	defer m.adv.Unlock()
	to := m.now.Load() + d
	m.moveTo(to)
	return to
}

// Set sets the clock to t, which may move it backwards, firing what comes due
// on the way there.
func (m *Manual) Set(t int64) {
	m.adv.Lock()
	defer m.adv.Unlock()
	m.moveTo(t)
}

func (m *Manual) moveTo(to int64) {
	for {
		t := m.takeDue(to)
		if t == nil {
			break
		}
		t.fire()
	}
	m.now.Store(to)
}

// takeDue disarms and returns the next timer to fire on the way to `to`, with
// the reading moved to its deadline, or nil when none is due.
func (m *Manual) takeDue(to int64) *manualTimer {
	m.mu.Lock()
	defer m.mu.Unlock()
	var due *manualTimer
	for _, t := range m.armed {
		if t.deadline <= to && (due == nil || t.deadline < due.deadline || t.deadline == due.deadline && t.seq < due.seq) {
			due = t
		}
	}
	if due != nil {
		due.disarmLocked()
		if due.deadline > m.now.Load() {
			m.now.Store(due.deadline)
		}
	}
	return due
}

// NewTimer implements Clock.
func (m *Manual) NewTimer() Timer {
	return &manualTimer{m: m, c: make(chan time.Time, 1)}
}

// funcTimer returns a stopped timer that runs fn when it fires.
func (m *Manual) funcTimer(fn func()) Timer { return &manualTimer{m: m, fn: fn} }

type manualTimer struct {
	m  *Manual
	c  chan time.Time // a NewTimer's tick slot
	fn func()         // a function timer's function
	// Guarded by m.mu.
	armed    bool
	deadline int64
	seq      uint64 // arming order, for ties
}

func (t *manualTimer) C() <-chan time.Time { return t.c }

func (t *manualTimer) fire() {
	if t.fn != nil {
		t.fn()
		return
	}
	select {
	case t.c <- time.Unix(0, t.m.Now()):
	default: // an unreceived tick is already there
	}
}

func (t *manualTimer) Reset(d time.Duration) {
	m := t.m
	m.mu.Lock()
	t.disarmLocked()
	if t.c != nil {
		select {
		case <-t.c:
		default:
		}
	}
	if d > 0 {
		m.seq++
		t.armed, t.deadline, t.seq = true, m.Now()+int64(d), m.seq
		m.armed = append(m.armed, t)
	}
	m.mu.Unlock()
	if d <= 0 {
		t.fire()
	}
}

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.disarmLocked()
}

func (t *manualTimer) disarmLocked() bool {
	if !t.armed {
		return false
	}
	t.armed = false
	for i, a := range t.m.armed {
		if a == t {
			t.m.armed = append(t.m.armed[:i], t.m.armed[i+1:]...)
			break
		}
	}
	return true
}
