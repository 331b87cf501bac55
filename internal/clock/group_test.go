package clock

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestManualFiresInDeadlineThenArmingOrder: one Advance runs what is due
// earliest deadline first, ties in arming order, each at a reading equal to
// its deadline, and leaves the rest armed.
func TestManualFiresInDeadlineThenArmingOrder(t *testing.T) {
	m := NewManual(100)
	g := NewGroup(m)
	defer g.Close()
	type firing struct {
		name string
		at   int64
	}
	var got []firing
	after := func(name string, d time.Duration) {
		g.After(d, func(due bool) {
			if due {
				got = append(got, firing{name, m.Now()})
			}
		})
	}
	after("late", 30)
	after("tie, armed first", 20)
	after("tie, armed second", 20)
	after("early", 10)
	after("not yet", 31)

	if now := m.Advance(30); now != 130 || m.Now() != 130 {
		t.Fatalf("Advance returned %d, reading %d, want 130", now, m.Now())
	}
	want := []firing{{"early", 110}, {"tie, armed first", 120}, {"tie, armed second", 120}, {"late", 130}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if m.Advance(1); len(got) != 5 || got[4] != (firing{"not yet", 131}) {
		t.Fatalf("after one more nanosecond: %v", got)
	}
}

// TestManualEveryRearmsInsideAdvance: a periodic function re-arms its timer
// from inside its own firing, and one Advance across several periods runs it
// once per period, at the period's reading.
func TestManualEveryRearmsInsideAdvance(t *testing.T) {
	m := NewManual(0)
	g := NewGroup(m)
	var at []int64
	kick := g.Every(10, func() { at = append(at, m.Now()) })
	if m.Advance(9); len(at) != 0 {
		t.Fatalf("ran before its first period: %v", at)
	}
	if m.Advance(26); !reflect.DeepEqual(at, []int64{10, 20, 30}) {
		t.Fatalf("ran at %v, want [10 20 30]", at)
	}
	if kick(); !reflect.DeepEqual(at, []int64{10, 20, 30, 35}) {
		t.Fatalf("a kick must run it at once: %v", at)
	}
	// The kicked run was the one due at 40, brought forward; the schedule goes on.
	if m.Advance(15); len(at) != 5 || at[4] != 50 {
		t.Fatalf("after a kick the schedule must go on from the run it replaced: %v", at)
	}
	g.Close()
	if m.Advance(100); len(at) != 5 {
		t.Fatalf("ran after Close: %v", at)
	}
}

// TestGroupCloseCancelsAndJoins: with an After pending, an Every running and a
// Go loop parked, Close tells the After it was cancelled, exactly once, and
// returns only when nothing of the group runs any more — on either clock.
func TestGroupCloseCancelsAndJoins(t *testing.T) {
	clocks := map[string]Clock{"real": NewReal(), "manual": NewManual(0)}
	for name, clk := range clocks {
		t.Run(name, func(t *testing.T) {
			g := NewGroup(clk)
			var settled, due, runs, live atomic.Int32
			g.After(time.Hour, func(d bool) {
				settled.Add(1)
				if d {
					due.Add(1)
				}
			})
			running := make(chan struct{}, 1)
			g.Every(time.Millisecond, func() {
				live.Add(1)
				defer live.Add(-1)
				runs.Add(1)
				select {
				case running <- struct{}{}:
				default:
				}
			})
			g.Go(func(ctx context.Context) {
				live.Add(1)
				defer live.Add(-1)
				<-ctx.Done()
			})
			if m, ok := clk.(*Manual); ok {
				m.Advance(int64(time.Millisecond))
			}
			<-running // the Every has run at least once

			g.Close()
			if settled.Load() != 1 || due.Load() != 0 {
				t.Fatalf("pending After: settled %d times, %d of them due; want cancelled once", settled.Load(), due.Load())
			}
			if n := live.Load(); n != 0 {
				t.Fatalf("%d functions of the group still running after Close", n)
			}
			if m, ok := clk.(*Manual); ok {
				n := runs.Load()
				if m.Advance(int64(time.Hour)); runs.Load() != n || settled.Load() != 1 {
					t.Fatal("the group ran something after Close")
				}
			}

			// A closed group starts nothing, and says so to an After at once.
			g.Go(func(context.Context) { t.Error("Go ran on a closed group") })
			g.Every(time.Nanosecond, func() { t.Error("Every ran on a closed group") })
			g.After(time.Hour, func(d bool) { settled.Add(1) })
			if settled.Load() != 2 {
				t.Fatal("After on a closed group must report the cancellation before it returns")
			}
			g.Close()
		})
	}
}

// TestGroupEveryKick: on the real clock, too, a kick runs the function ahead
// of its tick.
func TestGroupEveryKick(t *testing.T) {
	g := NewGroup(nil)
	defer g.Close()
	ran := make(chan int64, 64)
	kick := g.Every(time.Hour, func() { ran <- g.Now() })
	kick()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a kick did not run the function")
	}
}

func TestGroupAfterFires(t *testing.T) {
	g := NewGroup(nil)
	defer g.Close()
	fired := make(chan bool, 1)
	g.After(time.Millisecond, func(due bool) { fired <- due })
	select {
	case due := <-fired:
		if !due {
			t.Fatal("an After that ran out reported a cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("After never fired")
	}
}

// TestGroupCloseLeavesNoFrameBehind: when Close returns, no goroutine of the
// group is inside the group's code any more — neither one that Close's cancel
// woke nor one that ended on its own just as Close began — so a leak check may
// look at every goroutine at once. (The window this guards is narrow: the root
// package's leak check found a goroutine that took itself off the group's list
// about once in twenty runs of its suite.)
func TestGroupCloseLeavesNoFrameBehind(t *testing.T) {
	buf := make([]byte, 1<<20)
	for round := 0; round < 500; round++ {
		g := NewGroup(nil)
		ending := make(chan struct{})
		for i := 0; i < 4; i++ {
			g.Go(func(ctx context.Context) { <-ctx.Done() })
			g.Go(func(context.Context) { <-ending })
		}
		close(ending)
		g.Close()
		if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "\nmeerkat/internal/clock.(*Group).Go.func") {
			t.Fatalf("round %d: a goroutine of a closed group is still in the group's code:\n%s", round, stacks)
		}
	}
}
