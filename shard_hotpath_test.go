package meerkat_test

import (
	"fmt"
	"testing"

	"meerkat"
)

// newShardedHotpath opens a sharded DB and one shard-map-routing client with
// nkeys pre-loaded keys, for the sharded hot-path gates.
func newShardedHotpath(tb testing.TB, cfg meerkat.Config, nkeys int) (*meerkat.DB, *meerkat.Client, []string) {
	tb.Helper()
	db, err := meerkat.Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(db.Close)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		db.Load(keys[i], []byte("v"))
	}
	cl, err := db.Client()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	return db, cl, keys
}

// TestShardedCommitAllocGate pins the sharded single-shard commit to the same
// allocation ceiling as the unsharded gate (TestCommitSinglePartitionAllocGate):
// shard-map routing is an atomic load, a hash, and a binary search — it must
// add zero hot-path allocations over static routing.
func TestShardedCommitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	_, cl, keys := newShardedHotpath(t, meerkat.Config{}, 1)
	val := []byte("v2")
	commit := func() {
		txn := cl.Begin()
		if _, err := txn.Read(keys[0]); err != nil {
			t.Fatal(err)
		}
		txn.Write(keys[0], val)
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // warm the coordinator's reusable timers and scratch
	allocs := testing.AllocsPerRun(200, commit)
	if allocs > 9 {
		t.Fatalf("sharded single-shard commit allocated %v objects/op, want <= 9 (routing must be allocation-free)", allocs)
	}
}

// BenchmarkShardedCommitSingleShard is the sharded counterpart of
// BenchmarkCommitSinglePartition: identical traffic, routed by shard map.
func BenchmarkShardedCommitSingleShard(b *testing.B) {
	_, cl, keys := newShardedHotpath(b, meerkat.Config{}, 1)
	val := []byte("v2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := cl.Begin()
		if _, err := txn.Read(keys[0]); err != nil {
			b.Fatal(err)
		}
		txn.Write(keys[0], val)
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
