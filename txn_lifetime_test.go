package meerkat

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
	"meerkat/internal/transport"
)

// Client.Run recycles one Txn per client, commits ship copies of its sets and
// the accessors hand out copies (DESIGN.md §7, rule 6). These tests pin, from
// the public API down to the replicas' records, the lifetimes that follow.

// setsOf is what a checker history keeps of a transaction.
func setsOf(txn *Txn) message.Txn {
	return message.Txn{ID: txn.ID(), ReadSet: txn.ReadSet(), WriteSet: txn.WriteSet(), OpSet: txn.OpSet()}
}

// cloneSets deep-copies a transaction's sets, values included.
func cloneSets(in message.Txn) message.Txn {
	out := message.Txn{ID: in.ID}
	out.ReadSet = append(out.ReadSet, in.ReadSet...)
	for _, w := range in.WriteSet {
		out.WriteSet = append(out.WriteSet, message.WriteSetEntry{Key: w.Key, Value: append([]byte(nil), w.Value...)})
	}
	for _, o := range in.OpSet {
		o.Arg = append([]byte(nil), o.Arg...)
		out.OpSet = append(out.OpSet, o)
	}
	return out
}

// TestNestedRunOnOneClient: GetStrong, Put and Run called on a client from
// inside its own Run body are transactions of their own, each on a fresh Txn;
// the body's transaction — the client's one recycled Txn — is left as it was
// and commits what the body built.
func TestNestedRunOnOneClient(t *testing.T) {
	db := newTestDB(t, Config{})
	cl := newDBClient(t, db)
	db.Load("a", []byte("a0"))
	db.Load("b", []byte("b0"))
	ctx := context.Background()
	var outer *Txn
	err := cl.Run(ctx, func(txn *Txn) error {
		outer = txn
		if v, err := txn.Read("a"); err != nil || string(v) != "a0" {
			return fmt.Errorf("read a: %q, %v", v, err)
		}
		if v, err := cl.GetStrong("b"); err != nil || string(v) != "b0" {
			return fmt.Errorf("nested GetStrong: %q, %v", v, err)
		}
		if err := cl.Put("c", []byte("c1")); err != nil {
			return fmt.Errorf("nested Put: %w", err)
		}
		err := cl.Run(ctx, func(inner *Txn) error {
			if inner == txn {
				return fmt.Errorf("the nested Run was handed the body's own Txn")
			}
			inner.Write("d", []byte("d1"))
			return nil
		})
		if err != nil {
			return fmt.Errorf("nested Run: %w", err)
		}
		if r, w := txn.inner.ReadSetSize(), txn.inner.WriteSetSize(); r != 1 || w != 0 {
			return fmt.Errorf("nested calls rewrote the body's transaction: %d reads, %d writes", r, w)
		}
		txn.Write("a", []byte("a1"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := setsOf(outer)
	if len(got.ReadSet) != 1 || got.ReadSet[0].Key != "a" || len(got.WriteSet) != 1 || got.WriteSet[0].Key != "a" {
		t.Fatalf("the body's transaction committed as %+v", got)
	}
	for key, want := range map[string]string{"a": "a1", "b": "b0", "c": "c1", "d": "d1"} {
		if v, err := cl.GetStrong(key); err != nil || string(v) != want {
			t.Fatalf("%s = %q, %v; want %q", key, v, err, want)
		}
	}
	// And the next Run is back on the recycled Txn.
	if err := cl.Run(ctx, func(txn *Txn) error {
		if txn != outer {
			return fmt.Errorf("a Run after the nested ones was handed a new Txn")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if committed, _ := cl.Stats(); committed != 4 { // the body's, Put's, the nested Run's, the empty one
		t.Fatalf("committed %d, want 4", committed)
	}
}

// TestRunTxnReadableUntilNextRun: a history entry built from the accessors
// after Run is the caller's — byte-identical after a thousand further
// transactions on the client — and the Txn of the last attempt answers for it
// until the client's next Run.
func TestRunTxnReadableUntilNextRun(t *testing.T) {
	db := newTestDB(t, Config{Shards: 2})
	cl := newDBClient(t, db)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		db.Load(keys[i], []byte("v0"))
	}
	var last *Txn
	run := func(i int) {
		t.Helper()
		n := 2 + i%9
		val := []byte(fmt.Sprintf("written by %d", i))
		err := cl.Run(ctx, func(txn *Txn) error {
			last = txn
			if _, err := txn.ReadMany(keys[:n]); err != nil {
				return err
			}
			txn.Write(keys[i%n], val)
			txn.Append("log", val[:3])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	entry := setsOf(last)
	want := cloneSets(entry)
	id, ts := last.ID(), last.Timestamp()
	if len(entry.ReadSet) != 2 || len(entry.WriteSet) != 1 || len(entry.OpSet) != 1 || id.IsZero() || ts.IsZero() {
		t.Fatalf("first transaction: %+v at %v", entry, ts)
	}
	if _, err := cl.Get(keys[0]); err != nil { // a bare read is not a Run
		t.Fatal(err)
	}
	if last.ID() != id || last.Timestamp() != ts || last.CommittedReadOnly() || !reflect.DeepEqual(setsOf(last), want) {
		t.Fatalf("the last attempt's Txn changed before the next Run")
	}
	for i := 1; i <= 1000; i++ {
		run(i)
	}
	if last.ID() == id {
		t.Fatal("the client's Txn still answers for the first transaction")
	}
	if !reflect.DeepEqual(entry, want) {
		t.Fatalf("a recorded history entry was rewritten by later transactions:\ngot  %+v\nwant %+v", entry, want)
	}
}

// TestReadManySliceOutlivesLaterReadMany: the slice a ReadMany returned is
// intact when the body returns, also when a later ReadMany had to grow the
// transaction's results buffer (first pass) and when it fit (second).
func TestReadManySliceOutlivesLaterReadMany(t *testing.T) {
	db := newTestDB(t, Config{})
	cl := newDBClient(t, db)
	many := make([]string, 40)
	for i := range many {
		many[i] = fmt.Sprintf("many-%d", i)
		db.Load(many[i], []byte(many[i]))
	}
	db.Load("a", []byte("value a"))
	db.Load("b", []byte("value b"))
	for pass := 0; pass < 2; pass++ {
		err := cl.Run(context.Background(), func(txn *Txn) error {
			first, err := txn.ReadMany([]string{"a", "b"})
			if err != nil {
				return err
			}
			second, err := txn.ReadMany(many)
			if err != nil {
				return err
			}
			if string(first[0]) != "value a" || string(first[1]) != "value b" {
				t.Errorf("pass %d: the first ReadMany's slice reads %q after the second", pass, first)
			}
			for i, k := range many {
				if string(second[i]) != k {
					t.Errorf("pass %d: second[%d] = %q", pass, i, second[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadValuesOutliveTheirRepliesUDP is the public contract of Read and
// ReadMany — "the []byte values stay valid for as long as the caller keeps
// them" — where it is hardest to keep: over UDP a value arrives as a span of
// the reply's arena, which the next datagram decoded into that struct
// overwrites (and which a release poisons under -race). Values kept from a
// plain ReadMany, a read-only one and single Reads, the latter two on the
// one-round snapshot path, are unchanged after 300 later transactions have
// pushed their own replies through the same client.
func TestReadValuesOutliveTheirRepliesUDP(t *testing.T) {
	db := newTestDB(t, Config{Transport: TransportUDP, UDPBasePort: 22000})
	cl := newDBClient(t, db)
	keys := make([]string, 10)
	want := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("kept-%d", i)
		want[i] = []byte(fmt.Sprintf("%064d", i))
		db.Load(keys[i], want[i])
	}
	db.Load("churn", []byte("0"))
	ctx := context.Background()
	kept := map[string][][]byte{}
	for name, body := range map[string]func(*Txn) ([][]byte, error){
		"ReadMany": func(txn *Txn) ([][]byte, error) { return txn.ReadMany(keys) },
		"read-only ReadMany": func(txn *Txn) ([][]byte, error) {
			txn.ReadOnly()
			return txn.ReadMany(keys)
		},
		"read-only Reads": func(txn *Txn) ([][]byte, error) {
			txn.ReadOnly()
			vals := make([][]byte, len(keys))
			for i, k := range keys {
				v, err := txn.Read(k)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return vals, nil
		},
	} {
		err := cl.Run(ctx, func(txn *Txn) error {
			vals, err := body(txn)
			kept[name] = append([][]byte(nil), vals...) // the slice is the transaction's, the values are ours
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for i := 0; i < 300; i++ {
		err := cl.Run(ctx, func(txn *Txn) error {
			if i%2 == 0 {
				txn.ReadOnly()
			}
			if _, err := txn.ReadMany(keys[i%len(keys):]); err != nil {
				return err
			}
			if i%2 == 1 {
				txn.Write("churn", []byte(fmt.Sprintf("%064d", -i)))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, vals := range kept {
		if !reflect.DeepEqual(vals, want) {
			t.Errorf("%s: the values kept read %q after 300 later transactions", name, vals)
		}
	}
}

// replicaRecords pauses every replica core of db with an epoch change request
// and returns the transaction records each answered with, per group and
// replica. On the in-process transport the records' sets are the very arrays
// the trecords hold — which are the arrays the coordinators shipped.
func replicaRecords(t *testing.T, db *DB) map[[2]int][]message.TRecordEntry {
	t.Helper()
	in := transport.NewInbox(256)
	ep, err := db.net.Listen(db.topo.ClientAddr(1<<20), in.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	out := map[[2]int][]message.TRecordEntry{}
	for p := 0; p < db.topo.Partitions; p++ {
		for r := 0; r < db.topo.Replicas; r++ {
			for core := 0; core < db.topo.Cores; core++ {
				if err := ep.Send(db.topo.ReplicaAddr(p, r, uint32(core)), &message.Message{Type: message.TypeEpochChange, Epoch: 1}); err != nil {
					t.Fatal(err)
				}
				select {
				case m := <-in.C:
					if m.Type != message.TypeEpochChangeAck {
						t.Fatalf("got %v for an epoch change request", m.Type)
					}
					out[[2]int{p, r}] = append(out[[2]int{p, r}], m.Records...)
				case <-time.After(5 * time.Second):
					t.Fatalf("no epoch change ack from group %d replica %d core %d", p, r, core)
				}
			}
		}
	}
	return out
}

// TestShippedSetsAreImmutable: after a few hundred transactions through one
// client's Run — one-group and cross-shard, with aborted attempts in between
// — every replica's record of every attempt holds exactly its group's piece
// of the sets the attempt had. Under -race a working array that leaked into a
// message is loud besides: the replicas apply a commit's writes from their
// records while the client is already building the next transaction.
func TestShippedSetsAreImmutable(t *testing.T) {
	db := newTestDB(t, Config{Shards: 4})
	cl, spoiler := newDBClient(t, db), newDBClient(t, db)
	// Bounded: replicas whose records were rewritten under them may never
	// agree to commit anything again.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("%d-key", i)
		db.Load(keys[i], []byte("v0"))
	}
	want := map[timestamp.TxnID]message.Txn{}
	var last *Txn
	const txns = 300
	for i := 0; i < txns; i++ {
		read := keys[i%40 : i%40+2+i%9] // over several groups
		if i%3 == 0 {
			read = read[:1] // one group
		}
		val := []byte(fmt.Sprintf("written by %d", i))
		var attempts []message.Txn
		err := cl.Run(ctx, func(txn *Txn) error {
			last = txn
			if _, err := txn.ReadMany(read); err != nil {
				return err
			}
			if i%5 == 0 && len(attempts) == 0 {
				// Another client overwrites what this attempt read: it aborts.
				if err := spoiler.Put(read[0], []byte("spoiled")); err != nil {
					return err
				}
			}
			txn.Write(read[0], val)
			if i%3 != 0 {
				txn.Write(read[1], val)
				txn.Add("counter", 1)
			}
			attempts = append(attempts, cloneSets(setsOf(txn)))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 && len(attempts) < 2 {
			t.Fatalf("transaction %d committed over a conflicting write", i)
		}
		// The attempts of one Run draw consecutive ids, the committed one last.
		for id := last.ID(); len(attempts) > 0; id.Seq-- {
			sets := attempts[len(attempts)-1]
			attempts, sets.ID = attempts[:len(attempts)-1], id
			want[id] = sets
		}
	}
	if len(want) < txns+txns/5 {
		t.Fatalf("%d attempts of %d transactions: the test no longer covers aborts", len(want), txns)
	}

	m := db.source.Current()
	piece := func(sets message.Txn, p int) message.Txn {
		out := message.Txn{ID: sets.ID}
		for _, e := range sets.ReadSet {
			if m.GroupForKey(e.Key) == p {
				out.ReadSet = append(out.ReadSet, e)
			}
		}
		for _, e := range sets.WriteSet {
			if m.GroupForKey(e.Key) == p {
				out.WriteSet = append(out.WriteSet, e)
			}
		}
		for _, e := range sets.OpSet {
			if m.GroupForKey(e.Key) == p {
				out.OpSet = append(out.OpSet, e)
			}
		}
		return out
	}
	found := map[timestamp.TxnID]int{}
	for at, recs := range replicaRecords(t, db) {
		for _, rec := range recs {
			if rec.Txn.ID.ClientID != cl.ID() {
				continue // the spoiler's
			}
			sets, ok := want[rec.Txn.ID]
			if !ok {
				t.Fatalf("group %d replica %d holds a record of unknown transaction %v", at[0], at[1], rec.Txn.ID)
			}
			if exp := piece(sets, at[0]); !reflect.DeepEqual(rec.Txn, exp) {
				t.Fatalf("group %d replica %d, transaction %v (%v): the record's sets are not what was shipped:\ngot  %+v\nwant %+v",
					at[0], at[1], rec.Txn.ID, rec.Status, rec.Txn, exp)
			}
			found[rec.Txn.ID]++
		}
	}
	for id, sets := range want {
		groups := map[int]bool{}
		for _, e := range sets.ReadSet {
			groups[m.GroupForKey(e.Key)] = true
		}
		for _, e := range sets.OpSet {
			groups[m.GroupForKey(e.Key)] = true
		}
		if found[id] != len(groups)*db.topo.Replicas {
			t.Fatalf("transaction %v: %d records over %d groups of %d replicas", id, found[id], len(groups), db.topo.Replicas)
		}
	}
}
