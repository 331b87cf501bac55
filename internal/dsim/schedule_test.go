package dsim

import (
	"strings"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/transport"
)

// TestMergeHoleSchedule is ROADMAP item 2's schedule, written down by hand: a
// write validates at all three replicas and is acknowledged, its commit
// reaches replica 0 only, replica 2 crashes and is rebuilt from replica 1's
// store — which does not hold the write — and an epoch change runs while
// everything to and from replica 0 is held back past its whole retry budget.
// Then a late transaction reads the superseded version at replica 1 and tries
// to commit on it. The acknowledged write's only commit evidence is on
// replica 0: an epoch change that merges without it — from replica 1's one
// VALIDATED-OK and the rebuilt replica's empty table — aborts the write on
// two replicas, and the late transaction commits on what it overwrote.
func TestMergeHoleSchedule(t *testing.T) {
	s := newScenario(1)
	toOrFrom := func(node uint32) func(*envelope) bool {
		return func(e *envelope) bool { return e.dst.Node == node || e.m.Src.Node == node }
	}
	commitTo := func(r int) func(*envelope) bool {
		return func(e *envelope) bool {
			return e.m.Type == message.TypeCommit && e.dst == simTopo.ReplicaAddr(0, r, 0)
		}
	}

	// The write: read at replica 0, VALIDATED-OK at all three — the fast
	// quorum — so the client is told it committed and broadcasts the outcome.
	s.w.held = func(e *envelope) bool { return e.m.Type == message.TypeCommit }
	s.a.start()
	s.settle()
	if !s.a.acked() {
		t.Fatalf("the write was not acknowledged on the fast path\n%s", render(s.w.trace))
	}
	// The outcome reaches replica 0 only.
	s.w.held = func(e *envelope) bool { return !commitTo(0)(e) }
	s.settle()
	for _, r := range []int{1, 2} {
		s.w.held = func(e *envelope) bool { return !commitTo(r)(e) }
		s.w.drop(s.w.eligible(nil)[0])
	}

	// Replica 2 crashes and comes back with replica 1's store and no records.
	// Replica 0 is unreachable for the whole of the epoch change's budget.
	s.w.held = toOrFrom(simTopo.ReplicaNode(0, 0))
	s.crash(2)
	s.restart(2, 1)
	s.settle()
	t.Logf("epoch change with replica 0 unreachable: err=%v, %d merged", s.admin.errs[0], s.admin.merges)

	// The late transaction: replica 1 serves it the version the write superseded.
	s.b.start()
	s.settle()
	t.Logf("late transaction: read version %v, decided=%v committed=%v", s.b.readWTS, s.b.decided, s.b.commits)

	// Replica 0 is back; finish quiesces, runs one more epoch change and checks.
	if bad := s.finish(); len(bad) > 0 {
		t.Fatalf("%s\nschedule:\n%s", strings.Join(bad, "\n"), render(s.w.trace))
	}
	if s.admin.merges != 1 || s.admin.errs[0] == nil {
		t.Errorf("the epoch change that could not reach replica 0 ended %v and %d changes merged; want no quorum and only the last one merging", s.admin.errs[0], s.admin.merges)
	}
}

// randomSchedule runs the same cast through a schedule drawn from seed: the
// scheduler delivers, drops or holds back one message per step, or lets time
// pass; the crash, the recovery and the late transaction begin at steps the
// seed picks; one replica's links are held for a window the seed picks. It
// returns what finish found wrong and the schedule.
func randomSchedule(seed uint64) ([]string, []op) {
	rng := transport.SeedSplitMix64(seed)
	s := newScenario(seed)
	dropPct := []int{0, 2, 10, 25}[rng.Intn(4)]
	crashAt := rng.Intn(40)
	restartAt := crashAt + rng.Intn(30)
	lateAt := rng.Intn(80)
	donor := rng.Intn(2)
	holdFrom, victim := rng.Intn(60), uint32(rng.Intn(4)) // victim 3: nobody
	holdTo := holdFrom + rng.Intn(120)

	s.a.start()
	var buf []int
run:
	for step := 0; step < 600; step++ {
		s.w.held = nil
		if step >= holdFrom && step < holdTo {
			s.w.held = func(e *envelope) bool { return e.dst.Node == victim || e.m.Src.Node == victim }
		}
		if step == crashAt {
			s.crash(2)
		}
		if step == restartAt {
			s.restart(2, donor)
		}
		if step == lateAt {
			s.b.start()
		}
		// An epoch change that failed is tried again, as faultnet.Mirror does.
		if n := len(s.admin.errs); s.admin.ec == nil && n > 0 && n < 4 && s.admin.errs[n-1] != nil && rng.Intn(8) == 0 {
			s.admin.start()
		}

		el := s.w.eligible(buf)
		wake, waiting := s.nextWake()
		switch {
		case len(el) > 0 && (!waiting || rng.Intn(4) != 0):
			if i := el[rng.Intn(len(el))]; rng.Intn(100) < dropPct {
				s.w.drop(i)
			} else {
				s.w.deliver(i)
			}
		case waiting && rng.Intn(2) == 0:
			s.advance(wake)
		case waiting:
			s.advance(s.w.now().Add(time.Duration(rng.Intn(int(simTimeout / 4)))))
		case step > restartAt && step > lateAt && step >= holdTo:
			break run // nothing in flight, nobody waiting, nothing still to begin
		}
	}
	return s.finish(), s.w.trace
}

// TestRandomSchedules searches the neighbourhood of the hand-written schedule.
func TestRandomSchedules(t *testing.T) {
	n := uint64(100_000)
	if testing.Short() {
		n = 1_000
	}
	for seed := uint64(1); seed <= n; seed++ {
		if bad, trace := randomSchedule(seed); len(bad) > 0 {
			t.Fatalf("seed %d:\n%s\nschedule:\n%s", seed, strings.Join(bad, "\n"), render(trace))
		}
	}
}

// TestSchedulesReplay: a seed is a schedule — the same one, byte for byte,
// every time it is run.
func TestSchedulesReplay(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		_, first := randomSchedule(seed)
		_, again := randomSchedule(seed)
		if a, b := render(first), render(again); a != b {
			t.Fatalf("seed %d ran two schedules:\n%s\nand\n%s", seed, a, b)
		}
	}
}
