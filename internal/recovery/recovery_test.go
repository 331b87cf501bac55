package recovery

import (
	"context"
	"fmt"
	"testing"
	"time"

	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/replica"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
)

// testPolicy is the retry policy the tests run the machines under.
var testPolicy = drive.Policy{Timeout: 200 * time.Millisecond, Retries: 2, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond}

func tid(seq uint64) timestamp.TxnID { return timestamp.TxnID{Seq: seq, ClientID: 1} }
func ts(t int64) timestamp.Timestamp { return timestamp.Timestamp{Time: t, ClientID: 1} }

func entry(seq uint64, st message.Status) message.TRecordEntry {
	return message.TRecordEntry{
		Txn:    message.Txn{ID: tid(seq)},
		TS:     ts(int64(seq) * 10),
		Status: st,
	}
}

func statusOf(merged []message.TRecordEntry, id timestamp.TxnID) message.Status {
	for _, e := range merged {
		if e.Txn.ID == id {
			return e.Status
		}
	}
	return message.StatusNone
}

func TestMergeRule1FinalizedWins(t *testing.T) {
	// One replica committed, others still only validated: COMMITTED wins.
	merged := mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {entry(1, message.StatusCommitted)},
		1: {entry(1, message.StatusValidatedOK)},
	}, 1, nil)
	if got := statusOf(merged, tid(1)); got != message.StatusCommitted {
		t.Fatalf("status = %v", got)
	}
	merged = mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {entry(2, message.StatusAborted)},
		1: {entry(2, message.StatusValidatedOK)},
	}, 1, nil)
	if got := statusOf(merged, tid(2)); got != message.StatusAborted {
		t.Fatalf("status = %v", got)
	}
}

func TestMergeRule2AcceptedLatestView(t *testing.T) {
	eOld := entry(1, message.StatusAcceptCommit)
	eOld.AcceptView = 1
	eNew := entry(1, message.StatusAcceptAbort)
	eNew.AcceptView = 5
	merged := mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {eOld},
		1: {eNew},
	}, 1, nil)
	if got := statusOf(merged, tid(1)); got != message.StatusAborted {
		t.Fatalf("status = %v, want latest accepted decision (abort)", got)
	}
}

func TestMergeRule3MajorityValidated(t *testing.T) {
	merged := mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {entry(1, message.StatusValidatedOK)},
		1: {entry(1, message.StatusValidatedOK)},
	}, 1, nil)
	if got := statusOf(merged, tid(1)); got != message.StatusCommitted {
		t.Fatalf("f+1 VALIDATED-OK -> %v, want COMMITTED", got)
	}
	merged = mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {entry(2, message.StatusValidatedAbort)},
		1: {entry(2, message.StatusValidatedAbort)},
	}, 1, nil)
	if got := statusOf(merged, tid(2)); got != message.StatusAborted {
		t.Fatalf("f+1 VALIDATED-ABORT -> %v, want ABORTED", got)
	}
}

func TestMergeRule4FastPathRevalidation(t *testing.T) {
	// f=2 (n=5): a txn with ceil(f/2)+1 = 2 VALIDATED-OK replies among the
	// f+1 = 3 gathered (fewer than the f+1 = 3 rule 3 needs) might have
	// fast-committed on the 4-replica supermajority; it is re-validated
	// against the merged committed set. Here it conflicts with nothing, so
	// it commits.
	clean := message.TRecordEntry{
		Txn: message.Txn{
			ID:       tid(1),
			WriteSet: []message.WriteSetEntry{{Key: "a", Value: []byte("v")}},
		},
		TS:     ts(10),
		Status: message.StatusValidatedOK,
	}
	merged := mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {clean},
		1: {clean},
		2: {}, // the third gathered replica never saw it
	}, 2, nil)
	if got := statusOf(merged, tid(1)); got != message.StatusCommitted {
		t.Fatalf("clean fast-path candidate -> %v, want COMMITTED", got)
	}

	// With only one VALIDATED-OK, a fast-path commit is impossible (the
	// supermajority would intersect the gathered quorum in 2 replicas), so
	// the merge aborts it without re-validation.
	merged = mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {clean},
		1: {},
		2: {},
	}, 2, nil)
	if got := statusOf(merged, tid(1)); got != message.StatusAborted {
		t.Fatalf("single-OK candidate -> %v, want ABORTED", got)
	}
}

func TestMergeRule4ConflictAborts(t *testing.T) {
	// A fast-path candidate conflicting with an already-committed txn must
	// abort: committed wrote "a" at ts 50; candidate read "a" at version 10
	// with proposed ts 60 — stale read.
	committedTxn := message.TRecordEntry{
		Txn: message.Txn{
			ID:       tid(1),
			WriteSet: []message.WriteSetEntry{{Key: "a", Value: []byte("new")}},
		},
		TS:     ts(50),
		Status: message.StatusCommitted,
	}
	candidate := message.TRecordEntry{
		Txn: message.Txn{
			ID:       timestamp.TxnID{Seq: 2, ClientID: 2},
			ReadSet:  []message.ReadSetEntry{{Key: "a", WTS: ts(10)}},
			WriteSet: []message.WriteSetEntry{{Key: "a", Value: []byte("mine")}},
		},
		TS:     timestamp.Timestamp{Time: 60, ClientID: 2},
		Status: message.StatusValidatedOK,
	}
	merged := mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {committedTxn, candidate},
		1: {committedTxn, candidate},
		2: {committedTxn},
	}, 2, nil)
	if got := statusOf(merged, candidate.Txn.ID); got != message.StatusAborted {
		t.Fatalf("conflicting candidate -> %v, want ABORTED", got)
	}
}

func TestMergeRule5UnknownAborts(t *testing.T) {
	// Seen only as VALIDATED-ABORT at one replica (no majority, no
	// fast-path OK evidence): abort.
	merged := mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {entry(1, message.StatusValidatedAbort)},
		1: {},
	}, 1, nil)
	if got := statusOf(merged, tid(1)); got != message.StatusAborted {
		t.Fatalf("status = %v, want ABORTED", got)
	}
}

func TestMergeAllFinal(t *testing.T) {
	// Every merged entry must carry a final status.
	merged := mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {entry(1, message.StatusValidatedOK), entry(2, message.StatusValidatedAbort), entry(3, message.StatusAcceptCommit)},
		1: {entry(1, message.StatusValidatedOK), entry(4, message.StatusNone)},
	}, 1, nil)
	for _, e := range merged {
		if !e.Status.Final() {
			t.Fatalf("merged entry %v has non-final status %v", e.Txn.ID, e.Status)
		}
	}
	if len(merged) != 4 {
		t.Fatalf("merged %d entries, want 4", len(merged))
	}
}

func TestMergeDeterministic(t *testing.T) {
	in := map[uint32][]message.TRecordEntry{
		0: {entry(3, message.StatusValidatedOK), entry(1, message.StatusCommitted)},
		1: {entry(2, message.StatusValidatedOK), entry(1, message.StatusCommitted)},
		2: {entry(2, message.StatusValidatedOK), entry(3, message.StatusValidatedAbort)},
	}
	a := mergeTrecords(in, 1, nil)
	b := mergeTrecords(in, 1, nil)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i].Txn.ID != b[i].Txn.ID || a[i].Status != b[i].Status {
			t.Fatalf("nondeterministic merge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMergePrefersEntryWithBody(t *testing.T) {
	// If one replica has the txn body and another only a placeholder (from
	// a coordinator change), the merged entry must carry the body.
	full := message.TRecordEntry{
		Txn: message.Txn{
			ID:       tid(1),
			WriteSet: []message.WriteSetEntry{{Key: "a", Value: []byte("v")}},
		},
		TS:     ts(10),
		Status: message.StatusValidatedOK,
	}
	placeholder := entry(1, message.StatusValidatedOK)
	merged := mergeTrecords(map[uint32][]message.TRecordEntry{
		0: {placeholder},
		1: {full},
	}, 1, nil)
	for _, e := range merged {
		if e.Txn.ID == tid(1) && len(e.Txn.WriteSet) == 0 {
			t.Fatal("merged entry lost the transaction body")
		}
	}
}

func TestSyncStoreRemote(t *testing.T) {
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}
	net := transport.NewInproc(transport.InprocConfig{})
	defer net.Close()

	donor := vstore.New(vstore.Config{})
	for i := 0; i < 500; i++ {
		donor.Load(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("v%d", i)), ts(int64(i+1)))
	}
	donor.CommitRead("key-7", ts(1000))
	donor.CommitRead("only-read", ts(1001))

	rep, err := replica.New(replica.Config{Topo: tp, Partition: 0, Index: 1, Net: net, Store: donor})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	dst := vstore.New(vstore.Config{})
	if err := SyncStoreRemote(context.Background(), net, tp, 0, 1, dst, testPolicy, Options{}); err != nil {
		t.Fatalf("SyncStoreRemote: %v", err)
	}
	if dst.Len() != 501 {
		t.Fatalf("transferred %d keys, want 501", dst.Len())
	}
	v, ok := dst.Read("key-42")
	if !ok || string(v.Value) != "v42" {
		t.Fatalf("key-42 = %+v ok=%v", v, ok)
	}
	if _, rts := dst.Meta("key-7"); rts != ts(1000) {
		t.Fatalf("rts not transferred: %v", rts)
	}
	if wts, rts := dst.Meta("only-read"); !wts.IsZero() || rts != ts(1001) {
		t.Fatalf("read-only key arrived as wts %v rts %v, want no version and rts %v", wts, rts, ts(1001))
	}
}
