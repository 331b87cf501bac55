package coordinator

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

func newSplitCoordinator(t *testing.T, partitions int) *Coordinator {
	t.Helper()
	net := transport.NewInproc(transport.InprocConfig{})
	t.Cleanup(func() { net.Close() })
	c, err := New(Config{
		Topo:     topo.Topology{Partitions: partitions, Replicas: 3, Cores: 2},
		ClientID: 1,
		Net:      net,
		Clock:    clock.NewManual(1),
		ShardMap: shardmap.NewCache(shardmap.NewSource(shardmap.New(partitions))),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestSplitSinglePartitionCopies: a one-partition transaction goes down the
// same path as any other — its piece is a capacity-capped span of the bump
// chunks, not the working sets.
func TestSplitSinglePartitionCopies(t *testing.T) {
	c := newSplitCoordinator(t, 1)
	txn := c.Begin()
	txn.reads = []message.ReadSetEntry{{Key: "a"}, {Key: "b"}}
	txn.writes = []message.WriteSetEntry{{Key: "c"}}
	parts := c.split(txn, timestamp.TxnID{Seq: 1, ClientID: 1})
	if len(parts) != 1 || parts[0].p != 0 {
		t.Fatalf("parts %+v", parts)
	}
	got := parts[0].txn
	if len(got.ReadSet) != 2 || len(got.WriteSet) != 1 || got.OpSet != nil {
		t.Fatalf("sets %+v", got)
	}
	if &got.ReadSet[0] == &txn.reads[0] || &got.WriteSet[0] == &txn.writes[0] {
		t.Fatal("split shipped the transaction's working sets")
	}
	if cap(got.ReadSet) != 2 || cap(got.WriteSet) != 1 {
		t.Fatalf("spans not capacity-capped: %d %d", cap(got.ReadSet), cap(got.WriteSet))
	}
}

func TestSplitPartitionsCoverAndAgree(t *testing.T) {
	// Property: splitting preserves every read/write exactly once, routes
	// each key to its owning partition, and stamps every piece with the
	// transaction id.
	c := newSplitCoordinator(t, 4)
	owner := shardmap.New(4) // the map the coordinator routes by
	f := func(seed int64, nReads, nWrites uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		txn := c.Begin()
		for i := 0; i < int(nReads%24); i++ {
			txn.reads = append(txn.reads, message.ReadSetEntry{Key: fmt.Sprintf("rk-%d", rng.Intn(1000))})
		}
		for i := 0; i < int(nWrites%24); i++ {
			txn.writes = append(txn.writes, message.WriteSetEntry{Key: fmt.Sprintf("wk-%d", rng.Intn(1000))})
		}
		tid := timestamp.TxnID{Seq: uint64(seed), ClientID: 1}
		parts := c.split(txn, tid)

		reads, writes := 0, 0
		for _, pt := range parts {
			if pt.txn.ID != tid {
				return false
			}
			for _, r := range pt.txn.ReadSet {
				if owner.GroupForKey(r.Key) != pt.p {
					return false
				}
				reads++
			}
			for _, w := range pt.txn.WriteSet {
				if owner.GroupForKey(w.Key) != pt.p {
					return false
				}
				writes++
			}
		}
		return reads == len(txn.reads) && writes == len(txn.writes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAscendingPartitionOrder(t *testing.T) {
	// Property: pieces come out in strictly ascending partition order, so
	// the commit fan-out's send order is deterministic. Also pins order
	// within a piece: reads and writes keep their insertion order.
	c := newSplitCoordinator(t, 4)
	f := func(seed int64, nReads, nWrites uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		txn := c.Begin()
		for i := 0; i < int(nReads%24); i++ {
			txn.reads = append(txn.reads, message.ReadSetEntry{Key: fmt.Sprintf("rk-%d", rng.Intn(1000))})
		}
		for i := 0; i < int(nWrites%24); i++ {
			txn.writes = append(txn.writes, message.WriteSetEntry{Key: fmt.Sprintf("wk-%d", rng.Intn(1000))})
		}
		parts := c.split(txn, timestamp.TxnID{Seq: uint64(seed), ClientID: 1})
		for i := 1; i < len(parts); i++ {
			if parts[i-1].p >= parts[i].p {
				return false
			}
		}
		// Within each piece, reads must appear in read-set order.
		for _, pt := range parts {
			j := 0
			for _, r := range txn.reads {
				if c.partitionFor(r.Key) != pt.p {
					continue
				}
				if j >= len(pt.txn.ReadSet) || pt.txn.ReadSet[j].Key != r.Key {
					return false
				}
				j++
			}
			if j != len(pt.txn.ReadSet) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitEmptyTxn(t *testing.T) {
	c := newSplitCoordinator(t, 4)
	parts := c.split(c.Begin(), timestamp.TxnID{Seq: 1, ClientID: 1})
	if len(parts) != 0 {
		t.Fatalf("empty txn split into %d parts", len(parts))
	}
}
