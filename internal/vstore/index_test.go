package vstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestIndexConcurrentGrowth hammers the key index from several goroutines
// while it grows from empty through many table generations: creators race
// getOrCreate (directly, and through Load and SnapshotRead) over the same
// keys in different orders while readers probe. Every racer must get the
// same entry for a key, an entry once returned must stay findable through
// every later generation, and after quiesce every walk of the index must see
// each key exactly once. Run with -race.
func TestIndexConcurrentGrowth(t *testing.T) {
	const (
		shards     = 4
		goroutines = 8
		nkeys      = 4096 // ~1024 per shard: 8 doublings from minSlots
		stride     = 1531 // coprime with nkeys: each goroutine its own order
	)
	s := New(Config{Shards: shards})
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%06d", i)
	}

	got := make([][]*entry, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*entry, nkeys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < nkeys; i++ {
				k := (g*97 + i*stride) % nkeys
				switch g % 4 {
				case 0:
					s.Load(keys[k], []byte("v"), ts(int64(g+1)))
				case 1:
					s.SnapshotRead(keys[k], ts(1))
				case 2:
					s.Read(keys[k]) // may miss: no creation on this path
				}
				e := s.getOrCreate(keys[k])
				got[g][k] = e
				if e.key != keys[k] {
					t.Errorf("getOrCreate(%q) returned the entry of %q", keys[k], e.key)
					return
				}
				// Whatever this goroutine has been handed stays findable,
				// whichever generation the lookup lands on.
				back := (g*97 + (i/2)*stride) % nkeys
				if f := s.get(keys[back]); f != got[g][back] {
					t.Errorf("get(%q) = %p, earlier getOrCreate returned %p", keys[back], f, got[g][back])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for k := range keys {
		for g := 1; g < goroutines; g++ {
			if got[g][k] != got[0][k] {
				t.Fatalf("key %q: goroutine %d got entry %p, goroutine 0 got %p", keys[k], g, got[g][k], got[0][k])
			}
		}
	}
	for i := range s.shards {
		if n := len(s.shards[i].table.Load().slots); n < minSlots<<6 {
			t.Fatalf("shard %d ended at %d slots: fewer than 6 doublings", i, n)
		}
	}

	if n := s.Len(); n != nkeys {
		t.Fatalf("Len = %d, want %d", n, nkeys)
	}
	if n, _ := s.Counts(); n != nkeys {
		t.Fatalf("Counts keys = %d, want %d", n, nkeys)
	}
	exported := make(map[string]int, nkeys)
	for i := 0; i < s.NumShards(); i++ {
		for _, st := range s.ExportShard(i) {
			exported[st.Key]++
		}
	}
	for _, k := range keys {
		if exported[k] != 1 {
			t.Fatalf("key %q: ExportShard saw it %d times, want once", k, exported[k])
		}
	}
	if len(exported) != nkeys {
		t.Fatalf("ExportShard saw %d keys, want %d", len(exported), nkeys)
	}
}
