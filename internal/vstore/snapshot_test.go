package vstore

import "testing"

// TestSnapshotReadConfirmsWithoutPendingWriters covers the happy path of the
// read-only fast path's per-key guard: with no pending writer at or below the
// snapshot, the bound equals the snapshot itself (the reply confirms) and the
// returned version is the newest one at or under it.
func TestSnapshotReadConfirmsWithoutPendingWriters(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	s.CommitWrite("k", []byte("v2"), ts(5))

	v, bound, ok := s.SnapshotRead("k", ts(10))
	if !ok || string(v.Value) != "v2" || v.WTS != ts(5) {
		t.Fatalf("got %+v ok=%v, want v2@5", v, ok)
	}
	if bound != ts(10) {
		t.Fatalf("bound = %v, want snapshot %v (no pending writers)", bound, ts(10))
	}
}

// TestSnapshotReadBoundRoundsBelowPendingWriter: a pending writer at or below
// the snapshot is undecided, so the key's bound must drop to just below that
// writer — the reply then reports the snapshot unconfirmed and the coordinator
// retries or rounds down.
func TestSnapshotReadBoundRoundsBelowPendingWriter(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	w := ts(7)
	s.AddWriter("k", w)

	v, bound, ok := s.SnapshotRead("k", ts(10))
	if !ok || v.WTS != ts(1) {
		t.Fatalf("got %+v ok=%v, want v1@1", v, ok)
	}
	if bound != w.Prev() {
		t.Fatalf("bound = %v, want %v (just below pending writer)", bound, w.Prev())
	}

	// A pending writer above the snapshot cannot commit under it, so it
	// must not depress the bound.
	if _, bound, _ = s.SnapshotRead("k", ts(6)); bound != ts(6) {
		t.Fatalf("bound = %v, want %v (writer at 7 is above snapshot 6)", bound, ts(6))
	}
}

// TestSnapshotReadBlocksLaterWriteUnderSnapshot: serving a snapshot read
// raises the key's rts, so a write that validates afterwards cannot commit at
// or below the snapshot — including at exactly the snapshot timestamp, the
// equality case a rounded-down (writer.Prev-derived) snapshot can produce.
func TestSnapshotReadBlocksLaterWriteUnderSnapshot(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	snap := ts(10)
	if _, bound, _ := s.SnapshotRead("k", snap); bound != snap {
		t.Fatalf("unconfirmed snapshot: bound %v", bound)
	}

	if s.ValidateWrite("k", ts(9)) {
		t.Fatal("write below served snapshot validated")
	}
	if s.ValidateWrite("k", snap) {
		t.Fatal("write at exactly the served snapshot timestamp validated")
	}
	if !s.ValidateWrite("k", ts(11)) {
		t.Fatal("write above served snapshot rejected")
	}
}

// TestSnapshotReadMissingKey: a snapshot read of a key with no committed
// version still reports a bound (the key exists only as a guard entry) and
// not-found.
func TestSnapshotReadMissingKey(t *testing.T) {
	s := New(Config{})
	_, bound, ok := s.SnapshotRead("nope", ts(10))
	if ok {
		t.Fatal("snapshot read of missing key reported a version")
	}
	if bound != ts(10) {
		t.Fatalf("bound = %v, want %v", bound, ts(10))
	}
	// The rts guard must hold for missing keys too: the snapshot observed
	// "no value", so no write may now commit under it and contradict that.
	if s.ValidateWrite("nope", ts(4)) {
		t.Fatal("write under a served (missing-key) snapshot validated")
	}
}

// TestSnapshotReadOlderVersion: the snapshot pins reads to the newest version
// at or below it even when newer committed versions exist.
func TestSnapshotReadOlderVersion(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	s.CommitWrite("k", []byte("v2"), ts(5))
	s.CommitWrite("k", []byte("v3"), ts(9))

	v, bound, ok := s.SnapshotRead("k", ts(6))
	if !ok || string(v.Value) != "v2" || v.WTS != ts(5) {
		t.Fatalf("got %+v ok=%v, want v2@5", v, ok)
	}
	if bound != ts(6) {
		t.Fatalf("bound = %v, want %v", bound, ts(6))
	}
}

// TestSnapshotReadBoundWithMultiplePendingWriters: the bound rounds below the
// earliest undecided writer under the snapshot, not an arbitrary one.
func TestSnapshotReadBoundWithMultiplePendingWriters(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	s.AddWriter("k", ts(8))
	s.AddWriter("k", ts(3))

	if _, bound, _ := s.SnapshotRead("k", ts(10)); bound != ts(3).Prev() {
		t.Fatalf("bound = %v, want %v (below earliest pending writer)", bound, ts(3).Prev())
	}

	// Once the earliest writer resolves, the bound climbs to below the next.
	s.RemoveWriter("k", ts(3))
	if _, bound, _ := s.SnapshotRead("k", ts(10)); bound != ts(8).Prev() {
		t.Fatalf("bound = %v, want %v after abort of earliest writer", bound, ts(8).Prev())
	}
	s.CommitWrite("k", []byte("v2"), ts(8))
	if _, bound, _ := s.SnapshotRead("k", ts(10)); bound != ts(10) {
		t.Fatalf("bound = %v, want %v after all writers resolved", bound, ts(10))
	}
}

// TestSnapshotReadUnconfirmedBelowTrimmedHistory: once the version window has
// moved past a snapshot, the store no longer knows what that snapshot should
// see. Answering "missing" with a confirmed bound would let a read-only
// transaction read a hot key as never written; the bound must come back Zero
// so the coordinator retries or demotes. A chain that still reaches back to
// the first write keeps confirming "missing" below it.
func TestSnapshotReadUnconfirmedBelowTrimmedHistory(t *testing.T) {
	s := New(Config{MaxVersions: 2})
	s.CommitWrite("k", []byte("v10"), ts(10))
	if _, bound, ok := s.SnapshotRead("k", ts(5)); ok || bound != ts(5) {
		t.Fatalf("untrimmed chain: ok=%v bound=%v, want confirmed missing at 5", ok, bound)
	}
	s.CommitWrite("k", []byte("v20"), ts(20))
	s.CommitWrite("k", []byte("v30"), ts(30)) // trims v10

	if v, bound, ok := s.SnapshotRead("k", ts(15)); ok || !bound.IsZero() {
		t.Fatalf("snapshot 15 under trimmed history: got %+v ok=%v bound=%v, want unconfirmed missing", v, ok, bound)
	}
	if v, bound, ok := s.SnapshotRead("k", ts(25)); !ok || string(v.Value) != "v20" || bound != ts(25) {
		t.Fatalf("snapshot 25 inside the window: got %+v ok=%v bound=%v, want confirmed v20", v, ok, bound)
	}
}

// TestSnapshotReadSeesLateOlderWrite: writes commit in any order, and one
// that lands below a newer plain write is still committed history. With no
// pending writer left the bound confirms, so the chain must hold the late
// write — dropping it (the single-version Thomas rule) let a read-only
// transaction confirm the version underneath a committed write.
func TestSnapshotReadSeesLateOlderWrite(t *testing.T) {
	s := New(Config{})
	s.Load("k", []byte("v1"), ts(1))
	s.ValidateWrite("k", ts(20))
	s.ValidateWrite("k", ts(30))
	s.CommitWrite("k", []byte("v30"), ts(30))
	if _, bound, _ := s.SnapshotRead("k", ts(25)); bound != ts(20).Prev() {
		t.Fatalf("bound = %v with the write at 20 still pending, want %v", bound, ts(20).Prev())
	}
	s.CommitWrite("k", []byte("v20"), ts(20)) // lands below v30

	v, bound, ok := s.SnapshotRead("k", ts(25))
	if !ok || string(v.Value) != "v20" || bound != ts(25) {
		t.Fatalf("snapshot 25: got %q ok=%v bound=%v, want confirmed v20", v.Value, ok, bound)
	}
	if v, _ := s.Read("k"); string(v.Value) != "v30" {
		t.Fatalf("latest = %q, want v30", v.Value)
	}
}
