package replica_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/coordinator"
	"meerkat/internal/replica"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// multiReadStack is a full replica group plus coordinator-building, for
// end-to-end batched-read tests (this package already sits above both layers,
// so the equivalence tests live here rather than in internal/coordinator).
type multiReadStack struct {
	t    testing.TB
	topo topo.Topology
	net  *transport.Inproc
	reps []*replica.Replica
}

func newMultiReadStack(t testing.TB, partitions int) *multiReadStack {
	t.Helper()
	tp := topo.Topology{Partitions: partitions, Replicas: 3, Cores: 2}
	s := &multiReadStack{t: t, topo: tp, net: transport.NewInproc(transport.InprocConfig{})}
	for p := 0; p < partitions; p++ {
		for i := 0; i < 3; i++ {
			rep, err := replica.New(replica.Config{Topo: tp, Partition: p, Index: i, Net: s.net})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Start(); err != nil {
				t.Fatal(err)
			}
			s.reps = append(s.reps, rep)
		}
	}
	t.Cleanup(func() {
		for _, r := range s.reps {
			r.Stop()
		}
		s.net.Close()
	})
	return s
}

func (s *multiReadStack) load(key string, val []byte) {
	ts := timestamp.Timestamp{Time: 1, ClientID: 0}
	p := shardmap.New(s.topo.Partitions).GroupForKey(key)
	for i := 0; i < s.topo.Replicas; i++ {
		s.reps[p*s.topo.Replicas+i].Store().Load(key, val, ts)
	}
}

func (s *multiReadStack) newCoordinator(clientID uint64) *coordinator.Coordinator {
	s.t.Helper()
	c, err := coordinator.New(coordinator.Config{
		Topo: s.topo, ClientID: clientID, Net: s.net, Clock: clock.NewReal(),
		Timeout:  500 * time.Millisecond,
		ShardMap: shardmap.NewCache(shardmap.NewSource(shardmap.New(s.topo.Partitions))),
	})
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(c.Close)
	return c
}

// TestMultiReadMatchesSequentialReads checks the batched execution phase
// against the single-key one on a quiescent store: for every batch shape,
// ReadMany must return exactly the value, version, and presence flag that
// per-key Reads return — including missing keys and duplicate keys within
// one batch — across both single- and multi-partition topologies.
func TestMultiReadMatchesSequentialReads(t *testing.T) {
	for _, partitions := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", partitions), func(t *testing.T) {
			s := newMultiReadStack(t, partitions)
			const nkeys = 32
			for i := 0; i < nkeys; i++ {
				s.load(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
			}
			c := s.newCoordinator(1)

			batch := []string{"key-0", "key-7", "missing-a", "key-31", "key-7", "key-15", "missing-b"}
			got, err := c.ReadMany(context.Background(), batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(batch) {
				t.Fatalf("ReadMany returned %d results for %d keys", len(got), len(batch))
			}
			for i, k := range batch {
				val, ver, ok, err := c.Read(context.Background(), k)
				if err != nil {
					t.Fatal(err)
				}
				if got[i].OK != ok || got[i].WTS != ver || !bytes.Equal(got[i].Value, val) {
					t.Errorf("key %q: ReadMany = (%q, %v, %v), Read = (%q, %v, %v)",
						k, got[i].Value, got[i].WTS, got[i].OK, val, ver, ok)
				}
			}
		})
	}
}

// TestTxnReadManySemantics checks the transaction-level batch against the
// per-key path: buffered writes win, prior reads are reused, and duplicate
// keys inside one batch produce exactly one read-set entry.
func TestTxnReadManySemantics(t *testing.T) {
	s := newMultiReadStack(t, 2)
	s.load("a", []byte("va"))
	s.load("b", []byte("vb"))
	s.load("c", []byte("vc"))
	c := s.newCoordinator(1)

	txn := c.Begin()
	txn.Write("b", []byte("local"))
	if _, err := txn.Read("c"); err != nil {
		t.Fatal(err)
	}
	vals, err := txn.ReadMany([]string{"a", "b", "c", "a", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("va"), []byte("local"), []byte("vc"), []byte("va"), nil}
	for i := range want {
		if !bytes.Equal(vals[i], want[i]) {
			t.Errorf("vals[%d] = %q, want %q", i, vals[i], want[i])
		}
	}
	// Read set: c (from Read), a, missing. b is write-buffered and the
	// duplicate a must not appear twice.
	if n := txn.ReadSetSize(); n != 3 {
		t.Errorf("read set size = %d, want 3 (c, a, missing)", n)
	}
	if ok, err := txn.Commit(); err != nil || !ok {
		t.Fatalf("commit: %v %v", ok, err)
	}
}

// TestMultiReadUnderConcurrentWriters runs batched readers against committing
// writers; under -race this is the aliasing check for the coordinator's
// grouping scratch (sent key slices must be immutable once handed to the
// transport). Each returned result must be a consistent committed version:
// value "v<n>" always carries the version some writer committed it at.
func TestMultiReadUnderConcurrentWriters(t *testing.T) {
	s := newMultiReadStack(t, 2)
	const nkeys = 8
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		s.load(keys[i], []byte("v0"))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.newCoordinator(uint64(100 + w))
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				txn := c.Begin()
				k := keys[(w*3+n)%nkeys]
				if _, err := txn.Read(k); err != nil {
					t.Error(err)
					return
				}
				txn.Write(k, []byte(fmt.Sprintf("v%d-%d", w, n)))
				if _, err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	c := s.newCoordinator(1)
	for iter := 0; iter < 300; iter++ {
		got, err := c.ReadMany(context.Background(), keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !got[i].OK {
				t.Fatalf("key %q missing under concurrent writers", keys[i])
			}
			if len(got[i].Value) == 0 {
				t.Fatalf("key %q: empty value", keys[i])
			}
		}
	}
	close(stop)
	wg.Wait()
}
