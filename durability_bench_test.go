package meerkat_test

import (
	"fmt"
	"testing"
	"time"

	"meerkat"
)

// newDurableHotpathCluster is newHotpathCluster with SyncBatch durability on
// a test-scoped data directory.
func newDurableHotpathCluster(tb testing.TB, nkeys int) (*meerkat.DB, *meerkat.Client, []string) {
	tb.Helper()
	cluster, err := meerkat.Open(meerkat.Config{
		Durability: meerkat.Durability{DataDir: tb.TempDir()},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cluster.Close)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		cluster.Load(keys[i], []byte("v"))
	}
	cl, err := cluster.Client()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	return cluster, cl, keys
}

// TestCommitDurableAllocGate pins the commit hot path's allocation count
// with SyncBatch durability enabled: appending the commit record to the
// per-core write-ahead log must stay allocation-free steady-state (persistent
// scratch message, reused pending buffer), so the gate is the same ≤ 9 as
// the in-memory path.
func TestCommitDurableAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	_, cl, keys := newDurableHotpathCluster(t, 1)
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
	// Warm the coordinator's reusable timers, the trecord maps, and the WAL
	// pending/spare buffer pair, and let the group-commit goroutine complete
	// a few cycles, so the gate measures steady state rather than growth.
	for i := 0; i < 30; i++ {
		commit()
	}
	time.Sleep(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, commit)
	if allocs > 9 {
		t.Fatalf("durable commit allocated %v objects/op, want <= 9 (same gate as in-memory)", allocs)
	}
}

// BenchmarkCommitDurable is BenchmarkCommitSinglePartition with SyncBatch
// durability, for eyeballing the WAL's hot-path cost.
func BenchmarkCommitDurable(b *testing.B) {
	_, cl, keys := newDurableHotpathCluster(b, 1)
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
