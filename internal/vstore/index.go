package vstore

import (
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// shard is one slice of the key index: an open-addressed, linear-probed table
// of entry pointers. Lookups load the current table and probe it without any
// lock; inserts and growth are serialized by mu. Keys are never deleted, so
// there are no tombstones and a published slot never changes again.
type shard struct {
	mu    sync.Mutex
	table atomic.Pointer[table] // emptyTable until the shard's first insert
	n     atomic.Int64          // keys in the shard; written under mu
}

// table is one generation of a shard's slots. It is at most half full, so a
// probe always ends at an empty slot. Growth copies every entry into a table
// of twice the size and publishes that; the old generation stays valid for
// the readers still probing it — they can only miss keys inserted since, and
// a miss that matters (getOrCreate) re-checks under the shard lock.
type table struct {
	slots []atomic.Pointer[entry] // len is a power of two
	shift uint                    // 64 - log2(len(slots)), see slot
}

const minSlots = 8

// emptyTable is every shard's first generation: one slot, never filled (a
// shift of 64 sends every hash to it), so the first insert grows.
var emptyTable = &table{slots: make([]atomic.Pointer[entry], 1), shift: 64}

// fnv1a hashes key without allocating. The low bits pick the shard; slot
// re-mixes the same hash for the position inside the shard's table.
func fnv1a(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// slot is hash's home position: Fibonacci hashing takes the top bits of the
// product, which depend on every bit of hash — including the ones above the
// shard bits that all keys of one shard share.
func (t *table) slot(hash uint64) uint64 {
	return (hash * 0x9E3779B97F4A7C15) >> t.shift
}

// find returns key's entry in this generation, or nil. Lock-free.
func (t *table) find(key string, hash uint64) *entry {
	mask := uint64(len(t.slots) - 1)
	for i := t.slot(hash); ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.hash == hash && e.key == key {
			return e
		}
	}
}

// put stores e, whose key t does not hold, in the first empty slot of its
// probe sequence. The caller holds the shard lock or has not published t yet.
func (t *table) put(e *entry) {
	mask := uint64(len(t.slots) - 1)
	i := t.slot(e.hash)
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(e)
}

// grown returns a table of twice t's size (at least minSlots) holding every
// entry of t.
func (t *table) grown() *table {
	n := max(minSlots, 2*len(t.slots))
	nt := &table{slots: make([]atomic.Pointer[entry], n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil {
			nt.put(e)
		}
	}
	return nt
}

// insert returns key's entry, creating it if the locked re-check still misses:
// the caller's lock-free probe may have lost a race to another creator, or run
// on a generation that has since been superseded. A new entry names itself with
// a copy of key: an entry lives as long as the store, and the caller's key may
// be cut from a decoded message's arena, which the next datagram overwrites (a
// snapshot read creates entries for keys nobody has written).
func (sh *shard) insert(key string, hash uint64) *entry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.table.Load()
	if e := t.find(key, hash); e != nil {
		return e
	}
	if 2*(int(sh.n.Load())+1) > len(t.slots) {
		t = t.grown()
		sh.table.Store(t)
	}
	e := &entry{key: strings.Clone(key), hash: hash}
	t.put(e)
	sh.n.Add(1)
	return e
}

// each calls fn for every entry present when the shard's current table was
// loaded.
func (sh *shard) each(fn func(*entry)) {
	t := sh.table.Load()
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil {
			fn(e)
		}
	}
}

// get returns the entry for key, or nil if absent. Lock-free.
func (s *Store) get(key string) *entry {
	h := fnv1a(key)
	return s.shards[h&s.mask].table.Load().find(key, h)
}

// getOrCreate returns the entry for key, creating it if absent. Lock-free
// when the key exists.
func (s *Store) getOrCreate(key string) *entry {
	h := fnv1a(key)
	sh := &s.shards[h&s.mask]
	if e := sh.table.Load().find(key, h); e != nil {
		return e
	}
	return sh.insert(key, h)
}
