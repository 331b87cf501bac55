package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealMonotonicNonDecreasing(t *testing.T) {
	c := NewReal()
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		now := c.Now()
		if now < prev {
			t.Fatalf("clock went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

func TestRealAdvances(t *testing.T) {
	c := NewReal()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b-a < int64(time.Millisecond) {
		t.Fatalf("clock advanced only %dns over a 2ms sleep", b-a)
	}
}

func TestSkewedOffset(t *testing.T) {
	m := NewManual(1000)
	s := NewSkewed(m, 500, 0)
	if got := s.Now(); got != 1500 {
		t.Fatalf("Now() = %d, want 1500", got)
	}
	m.Advance(100)
	if got := s.Now(); got != 1600 {
		t.Fatalf("Now() = %d, want 1600", got)
	}
}

func TestSkewedNegativeOffset(t *testing.T) {
	m := NewManual(1000)
	s := NewSkewed(m, -300, 0)
	if got := s.Now(); got != 700 {
		t.Fatalf("Now() = %d, want 700", got)
	}
}

func TestSkewedDrift(t *testing.T) {
	m := NewManual(0)
	s := NewSkewed(m, 0, 10) // gains 10ns per second
	m.Advance(int64(3 * time.Second))
	want := int64(3*time.Second) + 30
	if got := s.Now(); got != want {
		t.Fatalf("Now() = %d, want %d", got, want)
	}
}

func TestManualSetAndAdvance(t *testing.T) {
	m := NewManual(5)
	if m.Now() != 5 {
		t.Fatal("start wrong")
	}
	if got := m.Advance(10); got != 15 {
		t.Fatalf("Advance returned %d, want 15", got)
	}
	m.Set(3)
	if m.Now() != 3 {
		t.Fatal("Set did not move clock backwards")
	}
}

func TestManualConcurrent(t *testing.T) {
	m := NewManual(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Advance(1)
				_ = m.Now()
			}
		}()
	}
	wg.Wait()
	if m.Now() != 8000 {
		t.Fatalf("Now() = %d, want 8000", m.Now())
	}
}

// ticked reports, without waiting, whether t's tick is in its channel.
func ticked(t Timer) bool {
	select {
	case <-t.C():
		return true
	default:
		return false
	}
}

func TestRealTimer(t *testing.T) {
	tm := NewReal().NewTimer()
	if tm.Stop() || ticked(tm) {
		t.Fatal("a new timer is armed")
	}
	tm.Reset(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	// An unreceived tick does not survive the next arming.
	tm.Reset(0)
	for !ticked(tm) {
	}
	tm.Reset(0)
	<-tm.C()
	tm.Reset(time.Hour)
	if ticked(tm) {
		t.Fatal("Reset kept the earlier arming's tick")
	}
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop must report an arming exactly once")
	}
}

func TestManualTimerStopAndReset(t *testing.T) {
	m := NewManual(0)
	tm := m.NewTimer()
	if tm.Stop() {
		t.Fatal("a new timer is armed")
	}

	tm.Reset(10)
	if m.Advance(9); ticked(tm) {
		t.Fatal("fired before its deadline")
	}
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop before due must report the arming exactly once")
	}
	if m.Advance(10); ticked(tm) {
		t.Fatal("a stopped timer fired")
	}

	tm.Reset(10) // due at 29
	tm.Reset(20) // re-armed before due: now 39
	if m.Advance(15); ticked(tm) {
		t.Fatal("fired at the deadline a Reset replaced")
	}
	if m.Advance(5); !ticked(tm) {
		t.Fatal("did not fire at its deadline")
	}

	tm.Reset(1)
	m.Advance(1) // fired, tick unreceived
	if tm.Stop() {
		t.Fatal("Stop after due reports an arming")
	}
	tm.Reset(5)
	if ticked(tm) {
		t.Fatal("Reset after due kept the earlier tick")
	}
	if m.Advance(5); !ticked(tm) {
		t.Fatal("did not fire after a Reset that followed a firing")
	}

	if tm.Reset(0); !ticked(tm) {
		t.Fatal("a timer armed with no delay must fire inside Reset")
	}
}
