package vstore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

// TestReadFastPathZeroAllocs is the regression gate for the read path: a read
// hit is a table probe and a copy of the newest slot under the key's lock — no
// allocations.
func TestReadFastPathZeroAllocs(t *testing.T) {
	s := New(Config{})
	s.Load("hot", []byte("v"), timestamp.Timestamp{Time: 1, ClientID: 1})
	key := "hot"
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := s.Read(key); !ok {
			t.Fatal("read miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("fast-path read allocated %v objects/op, want 0", allocs)
	}
}

// TestWarmKeyAllocGate pins what each storage operation allocates on a key
// that has been through a validate/commit cycle before: nothing — a write
// installs into the array the key already has — except, for an op, its merge
// record and its materialized value.
func TestWarmKeyAllocGate(t *testing.T) {
	const key = "warm"
	value := []byte("v")
	gates := []struct {
		name string
		want float64
		op   func(t *testing.T, s *Store, ts timestamp.Timestamp)
	}{
		{"Read", 0, func(_ *testing.T, s *Store, _ timestamp.Timestamp) { s.Read(key) }},
		{"SnapshotRead", 0, func(t *testing.T, s *Store, ts timestamp.Timestamp) { s.SnapshotRead(key, ts) }},
		{"ValidateRead+RemoveReader", 0, func(t *testing.T, s *Store, ts timestamp.Timestamp) {
			v, _ := s.Read(key)
			if !s.ValidateRead(key, v.WTS, message.HashValue(v.Value), ts) {
				t.Fatal("read validation failed")
			}
			s.RemoveReader(key, ts)
		}},
		{"ValidateRead+CommitRead", 0, func(t *testing.T, s *Store, ts timestamp.Timestamp) {
			v, _ := s.Read(key)
			if !s.ValidateRead(key, v.WTS, message.HashValue(v.Value), ts) {
				t.Fatal("read validation failed")
			}
			s.CommitRead(key, ts)
		}},
		{"ValidateWrite+RemoveWriter", 0, func(t *testing.T, s *Store, ts timestamp.Timestamp) {
			if !s.ValidateWrite(key, ts) {
				t.Fatal("write validation failed")
			}
			s.RemoveWriter(key, ts)
		}},
		{"AddWriter+RemoveWriter", 0, func(t *testing.T, s *Store, ts timestamp.Timestamp) {
			s.AddWriter(key, ts)
			s.RemoveWriter(key, ts)
		}},
		{"ValidateWrite+CommitWrite", 0, func(t *testing.T, s *Store, ts timestamp.Timestamp) {
			if !s.ValidateWrite(key, ts) {
				t.Fatal("write validation failed")
			}
			s.CommitWrite(key, value, ts)
		}},
		{"ValidateWrite+CommitOp", 2, func(t *testing.T, s *Store, ts timestamp.Timestamp) {
			if !s.ValidateWrite(key, ts) {
				t.Fatal("write validation failed")
			}
			s.CommitOp(key, message.OpIncrement, 1, nil, ts)
		}},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			s := New(Config{})
			clock := int64(0)
			next := func() timestamp.Timestamp {
				clock++
				return timestamp.Timestamp{Time: clock, ClientID: 1}
			}
			// Warm: a full chain (trim on every install) and both pending
			// sets used once.
			for i := 0; i < 10; i++ {
				s.CommitOp(key, message.OpIncrement, 1, nil, next())
			}
			r, w := next(), next()
			v, _ := s.Read(key)
			if !s.ValidateRead(key, v.WTS, message.HashValue(v.Value), r) || !s.ValidateWrite(key, w) {
				t.Fatal("warm-up validation failed")
			}
			s.RemoveReader(key, r)
			s.RemoveWriter(key, w)
			if got := testing.AllocsPerRun(200, func() { g.op(t, s, next()) }); got != g.want {
				t.Fatalf("%s allocated %v objects/op, want %v", g.name, got, g.want)
			}
		})
	}
}

// TestFirstCommitAllocGate pins the growth phase the benchmark lives in: a
// preloaded key's first validate + commit allocates one object, its version
// array growing from the one slot Load gave it straight to MaxVersions, and
// nothing else — no pending-set slice. It is the last the key's history
// allocates (TestWarmKeyAllocGate).
func TestFirstCommitAllocGate(t *testing.T) {
	const n = 256
	s := New(Config{})
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		s.Load(keys[i], []byte("v0"), timestamp.Timestamp{Time: 1, ClientID: 1})
	}
	value, h0 := []byte("v1"), message.HashValue([]byte("v0"))
	i := 0
	got := testing.AllocsPerRun(n-1, func() {
		k, ts := keys[i], timestamp.Timestamp{Time: 10, ClientID: 1}
		i++
		if !s.ValidateRead(k, timestamp.Timestamp{Time: 1, ClientID: 1}, h0, ts) || !s.ValidateWrite(k, ts) {
			t.Fatal("validation failed")
		}
		s.CommitRead(k, ts)
		s.CommitWrite(k, value, ts)
	})
	if got != 1 {
		t.Fatalf("first validate+commit of a loaded key allocated %v objects, want 1", got)
	}

	// A key nobody has seen costs its entry, the entry's own copy of its name
	// and a one-slot version array.
	fresh := make([]string, n)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("new%04d", i)
	}
	before := s.Len()
	i = 0
	got = testing.AllocsPerRun(n-1, func() {
		k, ts := fresh[i], timestamp.Timestamp{Time: 10, ClientID: 1}
		i++
		if !s.ValidateWrite(k, ts) {
			t.Fatal("validation failed")
		}
		s.CommitWrite(k, value, ts)
	})
	// Entry + key + one-slot array, plus the amortized share of the index
	// growing to hold the new keys (AllocsPerRun truncates the mean).
	if got != 3 {
		t.Fatalf("first commit of a new key allocated %v objects, want 3 (entry + key + one-slot array)", got)
	}
	if s.Len() != before+n {
		t.Fatalf("Len = %d, want %d", s.Len(), before+n)
	}
}

// TestConcurrentReadersNeverTorn runs readers against writers installing
// versions into the same slots and asserts no reader ever observes a torn or
// uncommitted version: every value self-describes the timestamp it was
// committed at, and per-key observed timestamps never move backwards. The
// store has two shards and the writers keep inserting fresh keys as they go,
// so the tables holding the keys under test double again and again while they
// are being read. Run with -race (the CI race job does) to also verify the
// memory model.
func TestConcurrentReadersNeverTorn(t *testing.T) {
	const (
		keys    = 16
		writers = 4
		readers = 4
		rounds  = 2000

		growEvery = 2 // 4000 fresh keys over 2 shards: 9 doublings each
	)
	s := New(Config{Shards: 2})
	keyName := func(k int) string { return fmt.Sprintf("key%02d", k) }

	// value encodes (time, clientID) so a reader can check value<->WTS
	// consistency: a torn read would pair one version's value with another's
	// timestamp.
	mkVal := func(ts timestamp.Timestamp) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b[:8], uint64(ts.Time))
		binary.LittleEndian.PutUint64(b[8:], ts.ClientID)
		return b
	}

	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 1; i <= rounds; i++ {
				ts := timestamp.Timestamp{Time: int64(i), ClientID: uint64(w + 1)}
				if i%growEvery == 0 {
					s.Load(fmt.Sprintf("grow%d-%04d", w, i), nil, ts)
				}
				k := keyName((w*7 + i) % keys)
				if !s.ValidateWrite(k, ts) {
					continue
				}
				s.CommitWrite(k, mkVal(ts), ts)
			}
		}(w)
	}

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			last := make(map[string]timestamp.Timestamp, keys)
			for i := 0; !stop.Load(); i++ {
				k := keyName((r*3 + i) % keys)
				v, ok := s.Read(k)
				if !ok {
					continue
				}
				if len(v.Value) != 16 {
					errs <- fmt.Errorf("torn value: %d bytes", len(v.Value))
					return
				}
				got := timestamp.Timestamp{
					Time:     int64(binary.LittleEndian.Uint64(v.Value[:8])),
					ClientID: binary.LittleEndian.Uint64(v.Value[8:]),
				}
				if got != v.WTS {
					errs <- fmt.Errorf("torn read on %s: value says %v, WTS says %v", k, got, v.WTS)
					return
				}
				if prev, seen := last[k]; seen && v.WTS.Less(prev) {
					errs <- fmt.Errorf("non-monotonic read on %s: %v after %v", k, v.WTS, prev)
					return
				}
				last[k] = v.WTS
			}
		}(r)
	}

	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got, want := s.Len(), keys+writers*rounds/growEvery; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// BenchmarkVstoreRead measures the read hit under parallelism — the YCSB-T
// read hot path, a probe and one per-key lock.
func BenchmarkVstoreRead(b *testing.B) {
	s := New(Config{})
	const n = 1024
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		s.Load(keys[i], []byte("value"), timestamp.Timestamp{Time: 1, ClientID: 1})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := s.Read(keys[i&(n-1)]); !ok {
				b.Fatal("miss")
			}
			i++
		}
	})
}
