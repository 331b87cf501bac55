package clock

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Group is a clock plus stop-and-join: the lifetime of everything one handle
// runs in the background. The handle starts its loops with Go, its periodic
// work with Every and its delayed work with After, and its Close — or Stop,
// or Crash — calls the group's Close, which ends all three kinds and returns
// only when none of them is running any more.
//
// This file has the only go statement outside the baselines. A goroutine is
// entered through a function of package sync that runs the caller's and
// signals its end after that has returned, so when Close returns, a joined
// goroutine — even one the scheduler has not yet retired — is no longer
// inside any function of this module. A leak check can therefore look at
// once, and look at everything.
//
// On a Manual clock Every and After start no goroutine: the clock runs their
// functions itself, inside Advance (see Manual).
type Group struct {
	Clock
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	closed  bool
	tasks   map[*task]struct{} // goroutines started and not yet known to have gone
	sweepAt int                // len(tasks) at which Go next drops the ones that have
	// A Manual clock's function timers: an Every's, for Close to stop, and each
	// pending After's, with the function Close is to tell of the cancellation.
	timers map[Timer]func(due bool)
}

// task is one goroutine: run is a sync.OnceFunc, so calling it again waits
// for the goroutine's call to return (or, if the goroutine has not got that
// far, runs the function in its place). A task leaves the group only by such
// a call: one that took itself off the list would still be in this file's
// code when the Close it had just unblocked looked for it.
type task struct {
	run  func()
	done atomic.Bool // the function has returned
}

// NewGroup returns an open group on clk (nil: a new Real).
func NewGroup(clk Clock) *Group {
	g := &Group{Clock: Or(clk), tasks: make(map[*task]struct{})}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	return g
}

// Go runs fn on a goroutine of its own. fn must return soon after ctx is
// done, which is when the group closes. A closed group starts nothing, and
// Go reports that.
func (g *Group) Go(fn func(ctx context.Context)) (started bool) {
	t := &task{}
	t.run = sync.OnceFunc(func() {
		fn(g.ctx)
		t.done.Store(true)
	})
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return false
	}
	if len(g.tasks) >= g.sweepAt {
		for old := range g.tasks {
			if old.done.Load() {
				old.run()
				delete(g.tasks, old)
			}
		}
		g.sweepAt = 2*len(g.tasks) + 8
	}
	g.tasks[t] = struct{}{}
	g.mu.Unlock()
	go t.run()
	return true
}

// Every runs fn every d, first d from now, one run at a time: a run that
// overruns its period delays the next one, it does not overlap it. The
// returned kick runs fn now, ahead of its schedule; a kick that lands while fn
// is running may be lost, and fn must not kick.
func (g *Group) Every(d time.Duration, fn func()) (kick func()) {
	var t Timer
	next := g.Now() + int64(d)
	tick := func() {
		fn()
		// A time.Ticker's schedule: periods are counted from the first, not
		// from the end of fn, so the rate does not drift with fn's cost; a run
		// that overran finds the period it ran into due at once, the periods
		// missed beyond that one are dropped, and the phase is kept.
		now := g.Now()
		if next += int64(d); next <= now {
			next += (now - next) / int64(d) * int64(d)
		}
		t.Reset(max(time.Duration(next-now), 1))
	}
	if m, ok := g.Clock.(*Manual); ok {
		var running sync.Mutex // a kick's run against Advance's
		t = m.funcTimer(func() {
			running.Lock()
			defer running.Unlock()
			if g.ctx.Err() == nil {
				tick()
			}
		})
		g.keep(t, nil)
	} else {
		t = g.NewTimer()
		g.Go(func(ctx context.Context) {
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C():
					tick()
				}
			}
		})
	}
	t.Reset(d) // armed before Every returns, so an Advance right after counts
	return func() { t.Reset(0) }
}

// After runs fn(true) once d has passed, on a goroutine of its own, or
// fn(false) if the group closes first — at once, on the caller's goroutine, if
// it already has — so that fn can let go of what it holds either way.
func (g *Group) After(d time.Duration, fn func(due bool)) {
	if m, ok := g.Clock.(*Manual); ok {
		var t Timer
		t = m.funcTimer(func() {
			g.mu.Lock()
			delete(g.timers, t)
			g.mu.Unlock()
			fn(true)
		})
		if g.keep(t, fn) {
			t.Reset(d)
		} else {
			fn(false)
		}
		return
	}
	t := g.NewTimer()
	t.Reset(d)
	started := g.Go(func(ctx context.Context) {
		select {
		case <-ctx.Done():
			t.Stop()
			fn(false)
		case <-t.C():
			fn(true)
		}
	})
	if !started {
		t.Stop()
		fn(false)
	}
}

// keep remembers a Manual clock's function timer for Close to stop — and, if
// it stops it armed, to call cancel(false) — unless the group has closed
// already.
func (g *Group) keep(t Timer, cancel func(due bool)) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	if g.timers == nil {
		g.timers = make(map[Timer]func(due bool))
	}
	g.timers[t] = cancel
	return true
}

// Close ends the group: ctx is done, what After has pending is cancelled, and
// Close returns once every function the group started has. Closing again is
// a no-op.
func (g *Group) Close() {
	g.mu.Lock()
	tasks, timers := g.tasks, g.timers
	g.closed, g.tasks, g.timers = true, nil, nil
	g.mu.Unlock()
	g.cancel()
	for t, cancel := range timers {
		// The clock disarms a timer before it fires it, so exactly one of the
		// firing and this Stop finds it armed.
		if t.Stop() && cancel != nil {
			cancel(false)
		}
	}
	for t := range tasks {
		t.run()
	}
}
