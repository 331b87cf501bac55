package dsim

import (
	"testing"

	"meerkat/internal/message"
	"meerkat/internal/replica"
	"meerkat/internal/timestamp"
	"meerkat/internal/vstore"
)

// The replica's half of PROTOCOL.md's epoch-change rules, one handler call at
// a time: a prober sends one message to replica 0 and the bag shows whether,
// and what, it answered.

type prober struct {
	t   *testing.T
	w   *world
	rep *replica.Replica
	got []message.Message // what came back from the last ask
}

func newProber(t *testing.T, recovering bool) *prober {
	p := &prober{t: t, w: newWorld()}
	st := vstore.New(vstore.Config{Shards: 1})
	st.Load(simKey, []byte("v0"), loadTS)
	var err error
	if p.rep, err = replica.New(replica.Config{Topo: simTopo, Net: p.w, Store: st, Recovering: recovering}); err == nil {
		err = p.rep.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ask delivers m to replica 0 and returns its answers, in order.
func (p *prober) ask(m message.Message) []message.Message {
	ep := &endpoint{w: p.w, addr: simTopo.ClientAddr(7)}
	p.w.handlers[ep.addr] = func(r *message.Message) {
		p.got = append(p.got, *r)
	}
	p.got = nil
	ep.Send(simTopo.ReplicaAddr(0, 0, 0), &m)
	for len(p.w.bag) > 0 {
		p.w.deliver(0)
	}
	return p.got
}

// status reads the record of tid back through an epoch-change request at a
// throwaway epoch, resuming the core afterwards.
func (p *prober) status(tid timestamp.TxnID, epoch uint64) message.Status {
	ack := p.ask(message.Message{Type: message.TypeEpochChange, Epoch: epoch})
	if len(ack) != 1 {
		p.t.Fatalf("epoch-change(%d): %d answers", epoch, len(ack))
	}
	st := message.StatusNone
	for _, e := range ack[0].Records {
		if e.Txn.ID == tid {
			st = e.Status
		}
	}
	p.ask(message.Message{Type: message.TypeEpochChangeComplete, Epoch: epoch})
	return st
}

func rmw(id uint64, readWTS timestamp.Timestamp, readVal string) (message.Txn, timestamp.Timestamp) {
	return message.Txn{
		ID:       timestamp.TxnID{Seq: 1, ClientID: id},
		ReadSet:  []message.ReadSetEntry{{Key: simKey, WTS: readWTS, VHash: message.HashValue([]byte(readVal))}},
		WriteSet: []message.WriteSetEntry{{Key: simKey, Value: []byte("w")}},
	}, timestamp.Timestamp{Time: 10 * int64(id), ClientID: id}
}

func TestRecoveringReplicaIsPausedFromBirth(t *testing.T) {
	p := newProber(t, true)
	txn, ts := rmw(1, loadTS, "v0")
	for _, m := range []message.Message{
		{Type: message.TypeValidate, Txn: txn, TS: ts},
		{Type: message.TypeAccept, TID: txn.ID, Txn: txn, TS: ts, Status: message.StatusAcceptCommit},
		{Type: message.TypeCoordChange, TID: txn.ID, View: 5},
		{Type: message.TypeCommit, TID: txn.ID, Status: message.StatusCommitted},
	} {
		if got := p.ask(m); len(got) != 0 {
			t.Fatalf("a recovering replica answered %v with %+v", m.Type, got)
		}
	}
	if p.rep.Records() != 0 {
		t.Fatalf("a recovering replica created %d records before its first merge", p.rep.Records())
	}
	// It serves reads from the transferred store, and confirms no snapshot.
	if got := p.ask(message.Message{Type: message.TypeMultiRead, Keys: []string{simKey}}); len(got) != 1 || !got[0].Reads[0].OK {
		t.Fatalf("plain read: %+v", got)
	}
	snap := timestamp.Timestamp{Time: 5}
	if got := p.ask(message.Message{Type: message.TypeMultiRead, Keys: []string{simKey}, TS: snap}); len(got) != 1 || !got[0].Watermark.IsZero() {
		t.Fatalf("snapshot read confirmed at %+v", got)
	}
	// Its ack carries no evidence until it has installed a merge.
	if got := p.ask(message.Message{Type: message.TypeEpochChange, Epoch: 1}); len(got) != 1 || got[0].OK {
		t.Fatalf("epoch-change-ack before the first merge: %+v", got)
	}
	if !p.rep.Recovering() {
		t.Fatal("no longer recovering before any merge was installed")
	}
	p.ask(message.Message{Type: message.TypeEpochChangeComplete, Epoch: 1})
	if p.rep.Recovering() {
		t.Fatal("still recovering after the merge was installed")
	}
	if got := p.ask(message.Message{Type: message.TypeValidate, Txn: txn, TS: ts}); len(got) != 1 || got[0].Status != message.StatusValidatedOK {
		t.Fatalf("validate after the first merge: %+v", got)
	}
	if got := p.ask(message.Message{Type: message.TypeEpochChange, Epoch: 2}); len(got) != 1 || !got[0].OK || len(got[0].Records) != 1 {
		t.Fatalf("epoch-change-ack after the first merge: %+v", got)
	}
}

func TestCoreInstallsAnEpochOnce(t *testing.T) {
	p := newProber(t, false)
	p.ask(message.Message{Type: message.TypeEpochChange, Epoch: 1})
	if got := p.ask(message.Message{Type: message.TypeEpochChangeComplete, Epoch: 1}); len(got) != 1 {
		t.Fatalf("complete(1): %+v", got)
	}
	// Resumed: a transaction validates.
	txn, ts := rmw(1, loadTS, "v0")
	if got := p.ask(message.Message{Type: message.TypeValidate, Txn: txn, TS: ts}); len(got) != 1 || got[0].Status != message.StatusValidatedOK {
		t.Fatalf("validate: %+v", got)
	}
	// A resent complete(1) is acknowledged and installs nothing.
	if got := p.ask(message.Message{Type: message.TypeEpochChangeComplete, Epoch: 1}); len(got) != 1 || got[0].Type != message.TypeEpochChangeCompleteAck {
		t.Fatalf("resent complete(1): %+v", got)
	}
	// A resent epoch-change(1) is dropped: it must not pause the core again.
	if got := p.ask(message.Message{Type: message.TypeEpochChange, Epoch: 1}); len(got) != 0 {
		t.Fatalf("resent epoch-change(1) answered: %+v", got)
	}
	txn2, ts2 := rmw(2, loadTS, "v0")
	if got := p.ask(message.Message{Type: message.TypeValidate, Txn: txn2, TS: ts2}); len(got) != 1 {
		t.Fatalf("the core is paused again: %+v", got)
	}
	if st := p.status(txn.ID, 2); st != message.StatusValidatedOK {
		t.Fatalf("the transaction validated since the install is %v", st)
	}
}

func TestInstallKeepsRecordsTheMergeDoesNotMention(t *testing.T) {
	p := newProber(t, false)
	txn, ts := rmw(1, loadTS, "v0")
	p.ask(message.Message{Type: message.TypeValidate, Txn: txn, TS: ts})
	// The group's epoch change closed without this replica: its merge arrives
	// at a core it never paused and knows nothing of the transaction.
	other := message.TRecordEntry{Txn: message.Txn{ID: timestamp.TxnID{Seq: 9, ClientID: 9}}, Status: message.StatusAborted}
	if got := p.ask(message.Message{Type: message.TypeEpochChangeComplete, Epoch: 1, Records: []message.TRecordEntry{other}}); len(got) != 1 {
		t.Fatalf("complete(1): %+v", got)
	}
	ack := p.ask(message.Message{Type: message.TypeEpochChange, Epoch: 2})
	got := map[timestamp.TxnID]message.Status{}
	for _, e := range ack[0].Records {
		got[e.Txn.ID] = e.Status
	}
	if got[txn.ID] != message.StatusValidatedOK || got[other.Txn.ID] != message.StatusAborted {
		t.Fatalf("records after the install: %v", got)
	}
}

func TestAcceptReplyCarriesAFinalStatus(t *testing.T) {
	p := newProber(t, false)
	txn, ts := rmw(1, loadTS, "v0")
	p.ask(message.Message{Type: message.TypeValidate, Txn: txn, TS: ts})
	p.ask(message.Message{Type: message.TypeCommit, TID: txn.ID, Status: message.StatusAborted})
	got := p.ask(message.Message{Type: message.TypeAccept, TID: txn.ID, Txn: txn, TS: ts, Status: message.StatusAcceptCommit})
	if len(got) != 1 || !got[0].OK || got[0].Status != message.StatusAborted {
		t.Fatalf("accept on an aborted record: %+v", got)
	}
	// An undecided record's ack carries none.
	txn2, ts2 := rmw(2, loadTS, "v0")
	got = p.ask(message.Message{Type: message.TypeAccept, TID: txn2.ID, Txn: txn2, TS: ts2, Status: message.StatusAcceptAbort})
	if len(got) != 1 || !got[0].OK || got[0].Status.Final() {
		t.Fatalf("accept on a new record: %+v", got)
	}
}
