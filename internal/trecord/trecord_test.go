package trecord

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

func tid(seq uint64) timestamp.TxnID { return timestamp.TxnID{Seq: seq, ClientID: 1} }

func TestGetOrCreate(t *testing.T) {
	p := NewPartition()
	r, created := p.GetOrCreate(tid(1))
	if !created || r == nil {
		t.Fatal("first GetOrCreate did not create")
	}
	if r.Txn.ID != tid(1) {
		t.Fatalf("record id = %v", r.Txn.ID)
	}
	r2, created := p.GetOrCreate(tid(1))
	if created || r2 != r {
		t.Fatal("second GetOrCreate did not return the same record")
	}
	if p.Get(tid(2)) != nil {
		t.Fatal("Get of missing tid returned a record")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	p := NewPartition()
	r1, _ := p.GetOrCreate(tid(1))
	r1.Status = message.StatusValidatedOK
	rep := &Record{Txn: message.Txn{ID: tid(1)}, Status: message.StatusCommitted}
	p.Put(rep)
	if got := p.Get(tid(1)); got != rep || got.Status != message.StatusCommitted {
		t.Fatal("Put did not replace record")
	}
}

func TestDelete(t *testing.T) {
	p := NewPartition()
	p.GetOrCreate(tid(1))
	p.Delete(tid(1))
	if p.Get(tid(1)) != nil || p.Len() != 0 {
		t.Fatal("Delete did not remove record")
	}
	p.Delete(tid(9)) // deleting a missing record must not panic
}

func TestRange(t *testing.T) {
	p := NewPartition()
	for i := uint64(1); i <= 5; i++ {
		p.GetOrCreate(tid(i))
	}
	n := 0
	p.Range(func(*Record) bool { n++; return true })
	if n != 5 {
		t.Fatalf("Range visited %d", n)
	}
	n = 0
	p.Range(func(*Record) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Range early-stop visited %d", n)
	}
}

func TestSnapshot(t *testing.T) {
	p := NewPartition()
	r, _ := p.GetOrCreate(tid(1))
	r.TS = timestamp.Timestamp{Time: 9, ClientID: 1}
	r.Status = message.StatusValidatedOK
	r.View = 2
	r.AcceptView = 1
	r.Txn.ReadSet = []message.ReadSetEntry{{Key: "a"}}
	r.Registered = true

	snap := p.Snapshot(7)
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	e := snap[0]
	if e.CoreID != 7 || e.TS != r.TS || e.Status != r.Status || e.View != 2 || e.AcceptView != 1 {
		t.Fatalf("snapshot entry %+v", e)
	}
	if len(e.Txn.ReadSet) != 1 || e.Txn.ReadSet[0].Key != "a" {
		t.Fatal("snapshot lost txn body")
	}
}

func TestCompact(t *testing.T) {
	p := NewPartition()
	for i := uint64(1); i <= 6; i++ {
		r, _ := p.GetOrCreate(tid(i))
		switch i % 3 {
		case 0:
			r.Status = message.StatusCommitted
		case 1:
			r.Status = message.StatusAborted
		default:
			r.Status = message.StatusValidatedOK
		}
	}
	removed := p.Compact()
	if removed != 4 {
		t.Fatalf("Compact removed %d, want 4", removed)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d after compact", p.Len())
	}
	p.Range(func(r *Record) bool {
		if r.Status.Final() {
			t.Errorf("final record %v survived compaction", r.Txn.ID)
		}
		return true
	})
}

func TestSharedConcurrentAccess(t *testing.T) {
	s := NewShared()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := timestamp.TxnID{Seq: uint64(i), ClientID: uint64(w)}
				s.Do(func(p *Partition) {
					r, _ := p.GetOrCreate(id)
					r.Status = message.StatusValidatedOK
				})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", s.Len())
	}
}

// TestRecordsStayPutAcrossSlabs: a *Record handed out stays the record of its
// transaction while later creations open slab after slab.
func TestRecordsStayPutAcrossSlabs(t *testing.T) {
	p := NewPartition()
	const n = 3*slabRecords + 7
	recs := make([]*Record, n)
	for i := range recs {
		recs[i], _ = p.GetOrCreate(tid(uint64(i)))
		recs[i].View = uint64(i)
	}
	for i, r := range recs {
		if got := p.Get(tid(uint64(i))); got != r || r.View != uint64(i) || r.Txn.ID != tid(uint64(i)) {
			t.Fatalf("record %d moved or was overwritten: %p vs %p, %+v", i, got, r, r)
		}
	}
}

// TestRemovedRecordsAreReused: Delete and Compact feed the free list, a
// reused record comes back zeroed but for its id, and steady-state churn
// allocates nothing.
func TestRemovedRecordsAreReused(t *testing.T) {
	p := NewPartition()
	a, _ := p.GetOrCreate(tid(1))
	a.Status, a.View, a.Registered = message.StatusCommitted, 9, true
	a.Txn.WriteSet = []message.WriteSetEntry{{Key: "k"}}
	b, _ := p.GetOrCreate(tid(2))
	b.Status = message.StatusAborted
	p.Delete(tid(1))
	if n := p.Compact(); n != 1 {
		t.Fatalf("Compact removed %d, want 1", n)
	}
	for seq := uint64(3); seq <= 4; seq++ {
		r, created := p.GetOrCreate(tid(seq))
		if !created || (r != a && r != b) {
			t.Fatalf("record %d is %p, want one of the removed %p %p", seq, r, a, b)
		}
		if r.Status != message.StatusNone || r.View != 0 || r.Registered || r.Txn.WriteSet != nil || r.Txn.ID != tid(seq) {
			t.Fatalf("reused record not reset: %+v", r)
		}
	}
	if c, _ := p.GetOrCreate(tid(5)); c == a || c == b {
		t.Fatal("a record still in the table was handed out again")
	}

	seq := uint64(100)
	churn := func() {
		p.GetOrCreate(tid(seq))
		p.Delete(tid(seq))
		seq++
	}
	churn()
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 {
		t.Fatalf("create/delete churn allocates %v objects/op, want 0", allocs)
	}
}

// TestDecodedBodiesFillChunks: records that take their bodies from decoded
// validates — one struct decoding datagram after datagram, as a core's receive
// path does — keep them in the partition's chunks, which cost one object per
// many takes, and every body reads back whole once all of them are taken.
func TestDecodedBodiesFillChunks(t *testing.T) {
	const takes = 10000
	p := NewPartition()
	m := message.AcquireMessage()
	defer message.ReleaseMessage(m)
	wire := make([][]byte, 8)
	for i := range wire {
		wire[i] = message.Encode(nil, &message.Message{Type: message.TypeValidate, Txn: body(uint64(i))})
	}
	seq := uint64(0)
	take := func() {
		if err := message.DecodeInto(m, wire[seq%8]); err != nil {
			t.Fatal(err)
		}
		seq++
		r, _ := p.GetOrCreate(tid(seq))
		r.Txn = m.TakeTxn(&p.Chunks)
		p.Delete(tid(seq)) // the table stays small; what is measured is the bodies
	}
	take()
	if allocs := testing.AllocsPerRun(takes, take); allocs > 1.0/64 {
		t.Fatalf("taking a decoded body allocates %v objects, want at most one per 64 takes", allocs)
	}

	kept := make([]message.Txn, 1000)
	for i := range kept {
		if err := message.DecodeInto(m, wire[i%8]); err != nil {
			t.Fatal(err)
		}
		kept[i] = m.TakeTxn(&p.Chunks)
	}
	for i := range kept {
		if want := body(uint64(i % 8)); !reflect.DeepEqual(kept[i], want) {
			t.Fatalf("body %d reads back as %+v, want %+v", i, kept[i], want)
		}
	}
}

// body is a validate's transaction in the suite's retwis shape: a read and a
// write of one key, and every eighth an op.
func body(i uint64) message.Txn {
	key := fmt.Sprintf("user:%06d", i)
	t := message.Txn{
		ID:       tid(i),
		ReadSet:  []message.ReadSetEntry{{Key: key, WTS: timestamp.Timestamp{Time: int64(i), ClientID: 1}}},
		WriteSet: []message.WriteSetEntry{{Key: key, Value: []byte(fmt.Sprint("post-", i))}},
	}
	if i%8 == 0 {
		t.OpSet = []message.OpSetEntry{{Key: "followers", Kind: message.OpIncrement, Delta: 1}}
	}
	return t
}
