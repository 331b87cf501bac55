package vstore

import (
	"fmt"
	"math/rand"
	"testing"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

// opEvent is one committed operation (plain write or commutative op) in a
// synthetic history the tests replay in shuffled orders.
type opEvent struct {
	ts    timestamp.Timestamp
	kind  message.OpKind // OpNone = plain write
	value []byte         // plain write payload
	delta int64
	arg   []byte
}

// applyEvents commits events against a fresh store in the given order and
// returns the resulting latest version of "k".
func applyEvents(events []opEvent, order []int, maxVersions int) Version {
	s := New(Config{MaxVersions: maxVersions})
	for _, i := range order {
		e := events[i]
		if e.kind == message.OpNone {
			s.CommitWrite("k", e.value, e.ts)
		} else {
			s.CommitOp("k", e.kind, e.delta, e.arg, e.ts)
		}
	}
	v, _ := s.Read("k")
	return v
}

func TestCommitOpBasics(t *testing.T) {
	s := New(Config{})
	s.CommitOp("k", message.OpIncrement, 5, nil, ts(1))
	if v, ok := s.Read("k"); !ok || string(v.Value) != "5" {
		t.Fatalf("increment from missing: %+v ok=%v", v, ok)
	}
	s.CommitOp("k", message.OpIncrement, -2, nil, ts(2))
	if v, _ := s.Read("k"); string(v.Value) != "3" || v.WTS != ts(2) {
		t.Fatalf("second increment: %+v", v)
	}
	s.CommitWrite("k", []byte("100"), ts(3))
	s.CommitOp("k", message.OpIncrement, 1, nil, ts(4))
	if v, _ := s.Read("k"); string(v.Value) != "101" {
		t.Fatalf("increment over write: %+v", v)
	}

	s.CommitOp("log", message.OpAppend, 0, []byte("a"), ts(1))
	s.CommitOp("log", message.OpAppend, 0, []byte("b"), ts(2))
	if v, _ := s.Read("log"); string(v.Value) != "ab" {
		t.Fatalf("appends: %+v", v)
	}

	s.CommitOp("hi", message.OpMax, 10, nil, ts(1))
	s.CommitOp("hi", message.OpMax, 3, nil, ts(2))
	if v, _ := s.Read("hi"); string(v.Value) != "10" || v.WTS != ts(2) {
		t.Fatalf("max fold: %+v", v)
	}
	s.CommitOp("lo", message.OpMin, 10, nil, ts(1))
	s.CommitOp("lo", message.OpMin, 3, nil, ts(2))
	if v, _ := s.Read("lo"); string(v.Value) != "3" {
		t.Fatalf("min fold: %+v", v)
	}

	merged, recovered := s.OpStats()
	if merged != 9 || recovered != 0 {
		t.Fatalf("OpStats = (%d, %d), want (9, 0)", merged, recovered)
	}
}

// TestOpOutOfOrderConvergence is the core merge-record property: applying the
// same committed events in ANY order yields the same materialized value and
// WTS, because out-of-order arrivals fold at their timestamp position and the
// versions above re-materialize.
func TestOpOutOfOrderConvergence(t *testing.T) {
	histories := [][]opEvent{
		{ // pure increment run
			{ts: ts(1), kind: message.OpIncrement, delta: 1},
			{ts: ts(2), kind: message.OpIncrement, delta: 10},
			{ts: ts(3), kind: message.OpIncrement, delta: 100},
			{ts: ts(4), kind: message.OpIncrement, delta: 1000},
		},
		{ // write below ops: ops must re-materialize when the write lands late
			{ts: ts(1), kind: message.OpNone, value: []byte("500")},
			{ts: ts(2), kind: message.OpIncrement, delta: 1},
			{ts: ts(3), kind: message.OpIncrement, delta: 2},
		},
		{ // write above ops masks them
			{ts: ts(1), kind: message.OpIncrement, delta: 7},
			{ts: ts(2), kind: message.OpNone, value: []byte("9")},
			{ts: ts(3), kind: message.OpIncrement, delta: 1},
		},
		{ // append ordering is timestamp order, not arrival order
			{ts: ts(1), kind: message.OpAppend, arg: []byte("a")},
			{ts: ts(2), kind: message.OpAppend, arg: []byte("b")},
			{ts: ts(3), kind: message.OpAppend, arg: []byte("c")},
			{ts: ts(4), kind: message.OpNone, value: []byte("X")},
			{ts: ts(5), kind: message.OpAppend, arg: []byte("d")},
		},
		{ // mixed kinds interleaved with writes
			{ts: ts(1), kind: message.OpNone, value: []byte("5")},
			{ts: ts(2), kind: message.OpMax, delta: 9},
			{ts: ts(3), kind: message.OpIncrement, delta: 1},
			{ts: ts(4), kind: message.OpMin, delta: 3},
			{ts: ts(5), kind: message.OpIncrement, delta: 40},
		},
	}
	rng := rand.New(rand.NewSource(42))
	for hi, events := range histories {
		order := make([]int, len(events))
		for i := range order {
			order[i] = i
		}
		want := applyEvents(events, order, -1)
		for trial := 0; trial < 50; trial++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			got := applyEvents(events, order, -1)
			if string(got.Value) != string(want.Value) || got.WTS != want.WTS {
				t.Fatalf("history %d order %v: got (%q, %v), want (%q, %v)",
					hi, order, got.Value, got.WTS, want.Value, want.WTS)
			}
		}
	}
}

// TestOpConvergenceRandomHistories drives the same property over randomly
// generated histories of writes and all four op kinds.
func TestOpConvergenceRandomHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		events := make([]opEvent, n)
		for i := range events {
			e := opEvent{ts: ts(int64(i + 1))}
			switch rng.Intn(5) {
			case 0:
				e.value = []byte(fmt.Sprintf("%d", rng.Intn(100)))
			case 1:
				e.kind, e.delta = message.OpIncrement, int64(rng.Intn(50)-25)
			case 2:
				e.kind, e.delta = message.OpMax, int64(rng.Intn(100))
			case 3:
				e.kind, e.delta = message.OpMin, int64(rng.Intn(100))
			case 4:
				e.kind, e.arg = message.OpAppend, []byte{byte('a' + rng.Intn(26))}
			}
			events[i] = e
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		want := applyEvents(events, order, -1)
		for s := 0; s < 10; s++ {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			got := applyEvents(events, order, -1)
			if string(got.Value) != string(want.Value) || got.WTS != want.WTS {
				t.Fatalf("trial %d order %v: got (%q, %v), want (%q, %v)",
					trial, order, got.Value, got.WTS, want.Value, want.WTS)
			}
		}
	}
}

// TestOpDuplicateReplayIdempotent asserts a commit record applied twice (WAL
// replay, duplicate finalize) folds once.
func TestOpDuplicateReplayIdempotent(t *testing.T) {
	s := New(Config{})
	s.CommitOp("k", message.OpIncrement, 5, nil, ts(1))
	s.CommitOp("k", message.OpIncrement, 3, nil, ts(2))
	s.CommitOp("k", message.OpIncrement, 5, nil, ts(1)) // replay
	s.CommitOp("k", message.OpIncrement, 3, nil, ts(2)) // replay
	if v, _ := s.Read("k"); string(v.Value) != "8" {
		t.Fatalf("after replay: %q, want 8", v.Value)
	}
}

// TestOpRecoveryBelowTrimmedHistory exercises the arithmetic-recovery path: a
// same-kind op arriving below the retained window still lands exactly.
func TestOpRecoveryBelowTrimmedHistory(t *testing.T) {
	s := New(Config{MaxVersions: 2})
	for i := 1; i <= 6; i++ {
		s.CommitOp("k", message.OpIncrement, 1, nil, ts(int64(i*10)))
	}
	// Only versions at ts 50, 60 retained (values "5", "6"); base is trimmed.
	s.CommitOp("k", message.OpIncrement, 100, nil, ts(5))
	if v, _ := s.Read("k"); string(v.Value) != "106" {
		t.Fatalf("after below-window increment: %q, want 106", v.Value)
	}
	if _, recovered := s.OpStats(); recovered != 1 {
		t.Fatalf("recovered = %d, want 1", recovered)
	}

	// Append recovery splices in front of the retained suffix.
	s2 := New(Config{MaxVersions: 2})
	for i := 1; i <= 4; i++ {
		s2.CommitOp("log", message.OpAppend, 0, []byte{byte('a' - 1 + i)}, ts(int64(i*10)))
	}
	// Retained: ts 30 ("abc"), ts 40 ("abcd").
	s2.CommitOp("log", message.OpAppend, 0, []byte("Z"), ts(5))
	if v, _ := s2.Read("log"); string(v.Value) != "abZcd" {
		t.Fatalf("after below-window append: %q, want abZcd", v.Value)
	}

	// Max/min recovery folds the operand into each retained extreme.
	s3 := New(Config{MaxVersions: 2})
	for i := 1; i <= 4; i++ {
		s3.CommitOp("hi", message.OpMax, int64(i*10), nil, ts(int64(i*10)))
	}
	s3.CommitOp("hi", message.OpMax, 99, nil, ts(5))
	if v, _ := s3.Read("hi"); string(v.Value) != "99" {
		t.Fatalf("after below-window max: %q, want 99", v.Value)
	}
}

// TestOpMaskedByImportedState asserts state-transfer idempotence: an op whose
// effect is already folded into an imported materialized value must not
// double-apply when replayed below it.
func TestOpMaskedByImportedState(t *testing.T) {
	s := New(Config{})
	// The exporter folded increments at ts 1..3 into value "3" with WTS 3.
	s.ImportState([]message.KeyState{{Key: "k", Value: []byte("3"), WTS: ts(3)}})
	s.CommitOp("k", message.OpIncrement, 1, nil, ts(2)) // late replay, already included
	if v, _ := s.Read("k"); string(v.Value) != "3" {
		t.Fatalf("imported value changed by masked replay: %q", v.Value)
	}
	s.CommitOp("k", message.OpIncrement, 1, nil, ts(4)) // genuinely new
	if v, _ := s.Read("k"); string(v.Value) != "4" {
		t.Fatalf("post-import op: %q, want 4", v.Value)
	}
}

// TestOpVersionChainAscendingWithOps extends the chain invariant to op
// histories: whatever the arrival order, retained versions ascend in WTS.
func TestOpVersionChainAscendingWithOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(Config{MaxVersions: -1})
	times := rng.Perm(40)
	for _, tt := range times {
		if tt%3 == 0 {
			s.CommitWrite("k", []byte("w"), ts(int64(tt+1)))
		} else {
			s.CommitOp("k", message.OpIncrement, 1, nil, ts(int64(tt+1)))
		}
	}
	vs := s.Versions("k")
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].WTS.Less(vs[i].WTS) {
			t.Fatalf("chain not ascending at %d: %v then %v", i, vs[i-1].WTS, vs[i].WTS)
		}
	}
}

// TestSnapshotReadSeesConsistentOpHistory asserts a snapshot read sees the
// folded value as of any timestamp, including ones that landed out of order.
func TestSnapshotReadSeesConsistentOpHistory(t *testing.T) {
	s := New(Config{MaxVersions: -1})
	s.CommitOp("k", message.OpIncrement, 100, nil, ts(30))
	s.CommitOp("k", message.OpIncrement, 10, nil, ts(20))
	s.CommitWrite("k", []byte("1"), ts(10))
	cases := []struct {
		at   int64
		want string
	}{{10, "1"}, {20, "11"}, {30, "111"}, {99, "111"}}
	for _, c := range cases {
		v, _, ok := s.SnapshotRead("k", ts(c.at))
		if !ok || string(v.Value) != c.want {
			t.Fatalf("SnapshotRead(%d) = %q ok=%v, want %q", c.at, v.Value, ok, c.want)
		}
	}
}
