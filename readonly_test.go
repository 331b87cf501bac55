package meerkat

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"meerkat/internal/checker"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
)

// TestReadOnlyFastPathZeroValidation is the tentpole's proof obligation: a
// read-only workload on the fast path must issue ZERO validation rounds. The
// obs counters are the witness — every RO commit shows up in txn_commit_ro,
// and the replicas' validate counters (and the classic commit-path counters)
// stay exactly at zero.
func TestReadOnlyFastPathZeroValidation(t *testing.T) {
	c := newTestDB(t, Config{Shards: 2, Cores: 2})
	for i := 0; i < 8; i++ {
		c.Load(fmt.Sprintf("k%d", i), []byte("v"))
	}
	cl := newDBClient(t, c)

	const n = 50
	for i := 0; i < n; i++ {
		txn := cl.Begin()
		txn.ReadOnly()
		// Mix single reads and batched reads across both partitions.
		if _, err := txn.Read(fmt.Sprintf("k%d", i%8)); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.ReadMany([]string{"k0", "k3", "k6"}); err != nil {
			t.Fatal(err)
		}
		ok, err := txn.Commit()
		if err != nil || !ok {
			t.Fatalf("ro commit %d: ok=%v err=%v", i, ok, err)
		}
		if !txn.CommittedReadOnly() {
			t.Fatalf("txn %d did not take the read-only fast path", i)
		}
	}

	snap := c.Admin().Obs().Snapshot()
	if got := snap.Counters[obs.TxnCommitRO]; got != n {
		t.Errorf("txn_commit_ro = %d, want %d", got, n)
	}
	if v := snap.Counters[obs.ValidateOK] + snap.Counters[obs.ValidateAbort]; v != 0 {
		t.Errorf("replicas ran %d validations for a pure RO workload, want 0", v)
	}
	if v := snap.Counters[obs.TxnCommitFast] + snap.Counters[obs.TxnCommitSlow]; v != 0 {
		t.Errorf("%d transactions took the classic commit path, want 0", v)
	}
	if snap.Counters[obs.SnapshotRead] == 0 {
		t.Error("replicas served no snapshot reads")
	}
}

// TestReadOnlySeesCommittedWrites pins the semantics: a snapshot read-only
// transaction observes every transaction that committed before it began.
func TestReadOnlySeesCommittedWrites(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	for i := 0; i < 10; i++ {
		want := []byte(fmt.Sprintf("v%d", i))
		if err := cl.Put("k", want); err != nil {
			t.Fatal(err)
		}
		txn := cl.Begin()
		txn.ReadOnly()
		got, err := txn.Read("k")
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := txn.Commit(); err != nil || !ok {
			t.Fatalf("ro commit: ok=%v err=%v", ok, err)
		}
		if string(got) != string(want) {
			t.Fatalf("round %d: snapshot read %q, want %q", i, got, want)
		}
	}
}

// TestReadOnlyDemotesOnWrite verifies the advisory nature of ReadOnly: a
// marked transaction that writes silently becomes a classic validated
// transaction, and its snapshot reads validate like any others.
func TestReadOnlyDemotesOnWrite(t *testing.T) {
	c := newTestDB(t, Config{})
	c.Load("k", []byte("1"))
	cl := newDBClient(t, c)

	txn := cl.Begin()
	txn.ReadOnly()
	if _, err := txn.Read("k"); err != nil {
		t.Fatal(err)
	}
	txn.Write("k", []byte("2"))
	ok, err := txn.Commit()
	if err != nil || !ok {
		t.Fatalf("demoted commit: ok=%v err=%v", ok, err)
	}
	if txn.CommittedReadOnly() {
		t.Fatal("a writing transaction claims the read-only fast path")
	}
	v, err := cl.GetStrong("k")
	if err != nil || string(v) != "2" {
		t.Fatalf("after demoted commit: %q, %v", v, err)
	}
	snap := c.Admin().Obs().Snapshot()
	if v := snap.Counters[obs.ValidateOK]; v == 0 {
		t.Error("demoted transaction skipped validation")
	}
}

// TestEmptyTxnZeroMessages pins the empty-transaction short-circuit: a
// transaction that read and wrote nothing commits without a single message
// on the wire.
func TestEmptyTxnZeroMessages(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	// One Put settles any lazily-sent setup traffic before the measurement.
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before, _, _ := c.Admin().NetworkStats()
	txn := cl.Begin()
	ok, err := txn.Commit()
	if err != nil || !ok {
		t.Fatalf("empty commit: ok=%v err=%v", ok, err)
	}
	after, _, _ := c.Admin().NetworkStats()
	if after != before {
		t.Fatalf("empty transaction sent %d messages, want 0", after-before)
	}

	// An empty transaction MARKED read-only is equally free.
	before = after
	txn = cl.Begin()
	txn.ReadOnly()
	if ok, err := txn.Commit(); err != nil || !ok {
		t.Fatalf("empty ro commit: ok=%v err=%v", ok, err)
	}
	after, _, _ = c.Admin().NetworkStats()
	if after != before {
		t.Fatalf("empty read-only transaction sent %d messages, want 0", after-before)
	}
}

// TestGetStrongUsesSnapshotPath verifies the rerouted strong read: one
// snapshot round, counted as a read-only fast-path commit, no validation.
func TestGetStrongUsesSnapshotPath(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	if err := cl.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	base := c.Admin().Obs().Snapshot()
	for i := 0; i < 10; i++ {
		v, err := cl.GetStrong("k")
		if err != nil || string(v) != "v1" {
			t.Fatalf("get strong: %q, %v", v, err)
		}
	}
	snap := c.Admin().Obs().Snapshot()
	if got := snap.Counters[obs.TxnCommitRO] - base.Counters[obs.TxnCommitRO]; got != 10 {
		t.Errorf("txn_commit_ro advanced by %d, want 10", got)
	}
	if got := snap.Counters[obs.ValidateOK] - base.Counters[obs.ValidateOK]; got != 0 {
		t.Errorf("strong reads ran %d validations, want 0", got)
	}

	// A never-written key reads as nil without error.
	v, err := cl.GetStrong("missing")
	if err != nil || v != nil {
		t.Fatalf("missing key: %q, %v", v, err)
	}
}

// TestReadOnlyUnderWriteContention drives RO snapshot transactions while
// writers hammer the same keys, on a larger replica group (n=5, where the
// confirmation quorum of Replicas-ceil(f/2)=4 exceeds a bare majority).
// Every RO transaction must return a consistent pair: both keys are always
// written together, so a snapshot must never see the halves split.
func TestReadOnlyUnderWriteContention(t *testing.T) {
	c := newTestDB(t, Config{Replicas: 5, Cores: 2, CommitTimeout: 50 * time.Millisecond})
	c.Load("a", []byte("0"))
	c.Load("b", []byte("0"))
	wcl := newDBClient(t, c)
	rcl := newDBClient(t, c)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 60; i++ {
			v := []byte(fmt.Sprintf("%d", i))
			wcl.Run(context.Background(), func(t *Txn) error {
				t.Write("a", v)
				t.Write("b", v)
				return nil
			})
		}
	}()

	for {
		select {
		case <-done:
			return
		default:
		}
		txn := rcl.Begin()
		txn.ReadOnly()
		vals, err := txn.ReadMany([]string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := txn.Commit()
		if err != nil {
			t.Fatalf("ro commit: %v", err)
		}
		if !ok {
			// Only a demoted transaction can abort: its snapshot could not be
			// confirmed (pending writers, or the 8-version window had moved
			// past it), it fell back to validated reads, and the writer won
			// the conflict. Its reads were never committed; try again.
			if txn.CommittedReadOnly() {
				t.Fatal("a fast-path commit reported an abort")
			}
			continue
		}
		if string(vals[0]) != string(vals[1]) || vals[0] == nil {
			t.Fatalf("torn or missing snapshot: a=%q b=%q", vals[0], vals[1])
		}
	}
}

// TestReadOnlyHotKeyBeyondVersionWindow is the regression test for the
// read-only fast-path hole the standing benchmark found: one hot key whose
// retained version window (8 versions) keeps moving past in-flight snapshots.
// A replica asked for a snapshot older than every version it still holds used
// to answer "missing" with a confirmed bound, so a fast-path reader saw a
// key that had been written hundreds of times as never written. Blind
// writers push the window as fast as the cluster commits; ReadOnly readers
// race them; the checker replays the history in timestamp order.
func TestReadOnlyHotKeyBeyondVersionWindow(t *testing.T) {
	c := newTestDB(t, Config{Cores: 2, CommitTimeout: 50 * time.Millisecond})
	const key = "hot"
	c.Load(key, []byte("0"))
	hist := checker.New()
	hist.SetInitialValue(key, []byte("0"))

	const writers, readers, txnsEach = 6, 4, 300
	record := func(txn *Txn) {
		hist.Add(checker.CommittedTxn{
			ID: txn.inner.ID(), TS: txn.inner.Timestamp(),
			ReadSet: txn.inner.ReadSet(), WriteSet: txn.inner.WriteSet(),
			ReadOnly: txn.CommittedReadOnly(),
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < writers+readers; i++ {
		cl := newDBClient(t, c)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < txnsEach; j++ {
				txn := cl.Begin()
				if i < writers {
					txn.Write(key, []byte(fmt.Sprintf("w%d-%d", i, j)))
				} else {
					txn.ReadOnly()
					if _, err := txn.Read(key); err != nil {
						continue
					}
				}
				if ok, err := txn.Commit(); err == nil && ok {
					record(txn)
				}
			}
		}(i)
	}
	wg.Wait()

	for _, v := range hist.Check(map[string]timestamp.Timestamp{key: {Time: 1}}) {
		t.Error(v)
	}
	snap := c.Admin().Obs().Snapshot()
	if snap.Counters[obs.TxnCommitRO] == 0 {
		t.Fatal("no transaction committed on the read-only fast path; the test exercised nothing")
	}
	t.Logf("%d committed, %d on the read-only fast path, %d demoted",
		hist.Len(), snap.Counters[obs.TxnCommitRO], snap.Counters[obs.ROFallback])
}
