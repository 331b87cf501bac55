package coordinator

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

// A transaction's working memory belongs to its coordinator: Run recycles one
// Txn, commits ship copies, the accessors hand out copies. These tests pin the
// lifetimes that follow, against replicas scripted to do what real ones do
// with a body — keep it, aliased, for good.

var scriptWTS = timestamp.Timestamp{Time: 1, ClientID: 99}

// scriptValue is what the scripted replicas hold under key.
func scriptValue(key string) []byte { return []byte("value of " + key) }

// keptBody is one group's piece of a transaction.
type keptBody struct {
	p   int
	txn message.Txn
}

// scriptReplicas makes net answer like the healthy replicas of every group: a
// read with scriptValue of each key (a snapshot read confirmed at its
// timestamp), a validate with verdict's status, and nothing to the outcome
// broadcast. It returns the bodies replica 0 of each group was sent, kept the
// way a trecord keeps them: as they arrived, sharing the sender's memory.
func scriptReplicas(net *scriptNet, verdict func(*message.Message) message.Status) *[]keptBody {
	kept := new([]keptBody)
	net.onSend = func(dst message.Addr, m *message.Message) {
		replica := dst.Node % uint32(roundTopo.Replicas)
		switch m.Type {
		case message.TypeMultiRead:
			reply := &message.Message{
				Type: message.TypeMultiReadReply, Seq: m.Seq, Src: dst,
				ReplicaID: replica, Watermark: m.TS,
			}
			for _, k := range m.Keys {
				reply.Reads = append(reply.Reads, message.ReadResult{Value: scriptValue(k), WTS: scriptWTS, OK: true})
			}
			net.deliver(reply)
		case message.TypeValidate:
			if replica == 0 {
				*kept = append(*kept, keptBody{roundTopo.PartitionOf(dst.Node), m.Txn})
			}
			net.deliver(&message.Message{
				Type: message.TypeValidateReply, TID: m.TID, Status: verdict(m),
				Src: dst, ReplicaID: replica,
			})
		}
	}
	return kept
}

func alwaysOK(*message.Message) message.Status { return vOK }

// scriptTxn is the transaction the tests run as number i: it reads nkeys keys
// over every group in one ReadMany, writes the first two and appends to a
// third. It returns the body and the sets the transaction then has.
func scriptTxn(c *Coordinator, i, nkeys int) (func(*Txn) error, message.Txn) {
	keys := make([]string, nkeys)
	for j := range keys {
		keys[j] = fmt.Sprintf("%d-key-%d", i, j)
	}
	val, arg := []byte(fmt.Sprintf("written by %d", i)), []byte(fmt.Sprintf("appended by %d", i))
	var want message.Txn
	for _, k := range keys {
		want.ReadSet = append(want.ReadSet, message.ReadSetEntry{Key: k, WTS: scriptWTS, VHash: message.HashValue(scriptValue(k))})
	}
	want.WriteSet = []message.WriteSetEntry{{Key: keys[0], Value: val}, {Key: keys[1], Value: val}}
	want.OpSet = []message.OpSetEntry{{Key: "log", Kind: message.OpAppend, Arg: arg}}
	return func(t *Txn) error {
		if _, err := t.ReadMany(keys); err != nil {
			return err
		}
		t.Write(keys[0], val)
		t.Write(keys[1], val)
		t.Append("log", arg)
		return nil
	}, want
}

func setsOf(t *Txn) message.Txn {
	return message.Txn{ReadSet: t.ReadSet(), WriteSet: t.WriteSet(), OpSet: t.OpSet()}
}

// TestRunRecyclesOneTxn: every Run of a coordinator hands its body the same
// Txn, what the accessors returned after one Run is the caller's — a thousand
// further transactions leave it byte-identical — and the Txn itself answers
// for the last attempt until the next Run, whatever else the coordinator does
// in between.
func TestRunRecyclesOneTxn(t *testing.T) {
	net := &scriptNet{}
	c := newScriptedCoordinator(t, net)
	scriptReplicas(net, alwaysOK)
	ctx := context.Background()
	var last *Txn
	run := func(i, nkeys int) message.Txn {
		body, want := scriptTxn(c, i, nkeys)
		if err := c.Run(ctx, func(txn *Txn) error { last = txn; return body(txn) }); err != nil {
			t.Fatal(err)
		}
		return want
	}
	want := run(0, 6)
	first, entry := last, setsOf(last)
	id, ts := last.ID(), last.Timestamp()
	if !reflect.DeepEqual(entry, want) {
		t.Fatalf("sets after Run:\ngot  %+v\nwant %+v", entry, want)
	}

	// A bare read and a Begin transaction are not a Run.
	if _, _, _, err := c.Read(ctx, "elsewhere"); err != nil {
		t.Fatal(err)
	}
	other := c.Begin()
	other.Write("elsewhere", []byte("x"))
	if ok, err := other.Commit(); err != nil || !ok {
		t.Fatalf("Begin commit: ok=%v err=%v", ok, err)
	}
	if last.ID() != id || last.Timestamp() != ts || last.CommittedReadOnly() || !reflect.DeepEqual(setsOf(last), want) {
		t.Fatalf("the last attempt's Txn changed before the next Run: id %v ts %v", last.ID(), last.Timestamp())
	}

	for i := 1; i <= 1000; i++ {
		run(i, 2+i%9)
		if last != first {
			t.Fatalf("Run %d handed its body a different Txn", i)
		}
	}
	if last.ID() == id {
		t.Fatal("the recycled Txn still answers for the first transaction")
	}
	if !reflect.DeepEqual(entry, want) {
		t.Fatalf("a recorded history entry was rewritten by later transactions:\ngot  %+v\nwant %+v", entry, want)
	}
}

// TestReadManySlicesOutliveGrowth: every slice ReadMany returned stays intact
// until the body returns, also when a later ReadMany outgrows the results
// buffer (the first pass) and when it does not (the second, on kept capacity).
func TestReadManySlicesOutliveGrowth(t *testing.T) {
	net := &scriptNet{}
	c := newScriptedCoordinator(t, net)
	scriptReplicas(net, alwaysOK)
	small := []string{"a", "b"}
	large := make([]string, 40)
	for i := range large {
		large[i] = fmt.Sprintf("large-%d", i)
	}
	for pass := 0; pass < 2; pass++ {
		grew := false
		err := c.Run(context.Background(), func(txn *Txn) error {
			first, err := txn.ReadMany(small)
			if err != nil {
				return err
			}
			before := cap(txn.vals)
			second, err := txn.ReadMany(large)
			if err != nil {
				return err
			}
			grew = cap(txn.vals) != before
			third, err := txn.ReadMany(small) // served from the read set
			if err != nil {
				return err
			}
			for _, got := range [][][]byte{first, third} {
				if len(got) != 2 || string(got[0]) != string(scriptValue("a")) || string(got[1]) != string(scriptValue("b")) {
					t.Errorf("pass %d: ReadMany(a, b) reads %q after a later ReadMany", pass, got)
				}
			}
			for i, k := range large {
				if string(second[i]) != string(scriptValue(k)) {
					t.Errorf("pass %d: second[%d] = %q", pass, i, second[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if grew != (pass == 0) {
			t.Fatalf("pass %d: results buffer grew = %v; the test no longer covers both cases", pass, grew)
		}
	}
}

// pieceOf is the part of want that partition p owns, as split carves it.
func pieceOf(c *Coordinator, want message.Txn, p int) message.Txn {
	piece := message.Txn{ID: want.ID}
	for _, e := range want.ReadSet {
		if c.partitionFor(e.Key) == p {
			piece.ReadSet = append(piece.ReadSet, e)
		}
	}
	for _, e := range want.WriteSet {
		if c.partitionFor(e.Key) == p {
			piece.WriteSet = append(piece.WriteSet, e)
		}
	}
	for _, e := range want.OpSet {
		if c.partitionFor(e.Key) == p {
			piece.OpSet = append(piece.OpSet, e)
		}
	}
	return piece
}

// TestShippedBodiesAreCopies: what a replica keeps of transaction i — from a
// one-group or a cross-group commit, from an attempt that aborted — is, after
// every later transaction, still exactly the piece of i's sets its group
// owns: split ships spans of the bump chunks, across several chunk changes,
// and never the working sets the next transaction overwrites.
func TestShippedBodiesAreCopies(t *testing.T) {
	net := &scriptNet{}
	c := newScriptedCoordinator(t, net)
	aborts := 0
	kept := scriptReplicas(net, func(m *message.Message) message.Status {
		if m.TID.Seq%5 == 0 { // every fifth attempt aborts and is retried under the next id
			aborts++
			return vAbort
		}
		return vOK
	})
	want := map[timestamp.TxnID]message.Txn{}
	const txns = 300
	for i := 0; i < txns; i++ {
		body, sets := scriptTxn(c, i, 2+i%9)
		if i%3 == 0 {
			// One group only: one key, read and written.
			key := fmt.Sprintf("%d-only", i)
			val := []byte(fmt.Sprintf("only %d", i))
			body = func(txn *Txn) error {
				if _, err := txn.Read(key); err != nil {
					return err
				}
				txn.Write(key, val)
				return nil
			}
			sets = message.Txn{
				ReadSet:  []message.ReadSetEntry{{Key: key, WTS: scriptWTS, VHash: message.HashValue(scriptValue(key))}},
				WriteSet: []message.WriteSetEntry{{Key: key, Value: val}},
			}
		}
		attempts := 0
		if err := c.Run(context.Background(), func(txn *Txn) error { attempts++; return body(txn) }); err != nil {
			t.Fatal(err)
		}
		// Every attempt shipped the same sets under its own id, the ids of one
		// Run consecutive and ending at the committed one.
		for id := c.txn.ID(); attempts > 0; attempts, id.Seq = attempts-1, id.Seq-1 {
			sets.ID = id
			want[id] = sets
		}
	}
	if aborts == 0 || len(want) <= txns {
		t.Fatalf("%d aborted attempts, %d bodies: the test no longer covers aborts", aborts, len(want))
	}
	if len(*kept) <= len(want) {
		t.Fatalf("%d kept bodies for %d transactions: the test no longer covers cross-group commits", len(*kept), len(want))
	}
	pieces := map[timestamp.TxnID]int{}
	for _, k := range *kept {
		got := k.txn
		sets, ok := want[got.ID]
		if !ok {
			t.Fatalf("a replica holds a body of unknown transaction %v", got.ID)
		}
		if piece := pieceOf(c, sets, k.p); !reflect.DeepEqual(got, piece) {
			t.Fatalf("group %d's body of %v changed after it was shipped:\ngot  %+v\nwant %+v", k.p, got.ID, got, piece)
		}
		pieces[got.ID] += len(got.ReadSet) + len(got.WriteSet) + len(got.OpSet)
	}
	for id, sets := range want {
		if n := len(sets.ReadSet) + len(sets.WriteSet) + len(sets.OpSet); pieces[id] != n {
			t.Fatalf("transaction %v: the groups hold %d entries of %d", id, pieces[id], n)
		}
	}
}

// TestResetLeavesNoPointerBehind: a recycled Txn keeps the capacity of its
// sets and nothing else — no value read from a store, no caller buffer, no
// key — anywhere in their backing arrays, so a parked client pins nothing.
func TestResetLeavesNoPointerBehind(t *testing.T) {
	net := &scriptNet{}
	c := newScriptedCoordinator(t, net)
	scriptReplicas(net, alwaysOK)
	body, _ := scriptTxn(c, 0, 12)
	if err := c.Run(context.Background(), body); err != nil {
		t.Fatal(err)
	}
	txn := &c.txn
	txn.reset(context.Background())
	if cap(txn.reads) == 0 || cap(txn.readVals) == 0 || cap(txn.vals) == 0 || cap(txn.writes) == 0 || cap(txn.ops) == 0 {
		t.Fatalf("reset dropped capacity: reads %d readVals %d vals %d writes %d ops %d",
			cap(txn.reads), cap(txn.readVals), cap(txn.vals), cap(txn.writes), cap(txn.ops))
	}
	if len(txn.reads)+len(txn.readVals)+len(txn.vals)+len(txn.writes)+len(txn.ops)+len(txn.unresolved) != 0 ||
		!txn.ID().IsZero() || !txn.Timestamp().IsZero() || txn.opErr != nil || txn.ro || txn.roViable || txn.roCommitted {
		t.Fatalf("reset left state behind: %+v", txn)
	}
	for i, e := range txn.reads[:cap(txn.reads)] {
		if e != (message.ReadSetEntry{}) {
			t.Fatalf("reads[%d] = %+v", i, e)
		}
	}
	for i, v := range txn.readVals[:cap(txn.readVals)] {
		if v != nil {
			t.Fatalf("readVals[%d] pins %q", i, v)
		}
	}
	for i, v := range txn.vals[:cap(txn.vals)] {
		if v != nil {
			t.Fatalf("vals[%d] pins %q", i, v)
		}
	}
	for i, e := range txn.writes[:cap(txn.writes)] {
		if e.Key != "" || e.Value != nil {
			t.Fatalf("writes[%d] pins %q", i, e.Value)
		}
	}
	for i, e := range txn.ops[:cap(txn.ops)] {
		if e.Key != "" || e.Arg != nil {
			t.Fatalf("ops[%d] pins %q", i, e.Arg)
		}
	}
}
