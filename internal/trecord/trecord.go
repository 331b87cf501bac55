// Package trecord implements the transaction record table of the paper's
// §4.2 (Figure 2): per-transaction state used for replication, recovery, and
// synchronization.
//
// To preserve disjoint access parallelism, Meerkat horizontally partitions
// the trecord among cores by transaction id: each core operates on its own
// Partition, which is therefore deliberately NOT safe for concurrent use —
// the owning core's message-delivery goroutine is its only user. (Epoch
// changes snapshot partitions through that same goroutine, so no lock is
// ever needed.)
//
// The TAPIR-like and KuaFu++ baselines instead share one record per replica
// across all cores; Shared wraps a Partition with a mutex to model exactly
// that cross-core coordination point.
package trecord

import (
	"sync"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

// Record is one transaction's entry: the fields of Figure 2 plus the View
// and AcceptView fields used by coordinator recovery (§5.3.2).
type Record struct {
	Txn        message.Txn
	TS         timestamp.Timestamp
	Status     message.Status
	View       uint64
	AcceptView uint64

	// Registered tracks whether this replica currently holds pending
	// reader/writer registrations in the vstore for this transaction
	// (true after a successful local validation, false once the write
	// phase or abort cleanup has run). It is replica-local bookkeeping
	// and is never sent on the wire.
	Registered bool

	// CreatedAt is the local monotonic time (ns) the record was created,
	// used by the sweeper to detect transactions whose coordinator has
	// stalled. Replica-local; never sent on the wire.
	CreatedAt int64

	// LastRecovery is the local monotonic time (ns) this replica last
	// initiated coordinator recovery for the transaction, bounding how
	// often backup coordinators retry. Replica-local.
	LastRecovery int64
}

// slabRecords is how many records one slab holds: creating a record costs one
// allocation per slabRecords transactions instead of one each.
const slabRecords = 128

// Partition is one core's slice of the trecord. Not safe for concurrent use;
// see the package comment.
//
// Records created here are carved out of slabs that are never reallocated, so
// a *Record stays valid for as long as its record is in the table, exactly as
// when each was its own heap object. Delete and Compact hand a slab record
// back to a free list, which GetOrCreate drains before it opens a new slab.
type Partition struct {
	// Chunks holds the bodies the records take from decoded messages
	// (message.TakeTxn): no allocation of their own, filled in arrival order.
	Chunks message.Chunks

	m    map[timestamp.TxnID]*Record
	slab []Record  // the open slab: len handed out, the rest of cap still unused
	free []*Record // zeroed records returned by Delete and Compact
}

// NewPartition returns an empty partition.
func NewPartition() *Partition {
	return &Partition{m: make(map[timestamp.TxnID]*Record)}
}

// Get returns the record for tid, or nil.
func (p *Partition) Get(tid timestamp.TxnID) *Record { return p.m[tid] }

// GetOrCreate returns the record for tid, creating an empty one if absent.
// created reports whether a new record was made.
func (p *Partition) GetOrCreate(tid timestamp.TxnID) (r *Record, created bool) {
	if r = p.m[tid]; r != nil {
		return r, false
	}
	if n := len(p.free); n > 0 {
		r, p.free = p.free[n-1], p.free[:n-1]
	} else {
		if len(p.slab) == cap(p.slab) {
			p.slab = make([]Record, 0, slabRecords)
		}
		p.slab = p.slab[:len(p.slab)+1]
		r = &p.slab[len(p.slab)-1]
	}
	r.Txn.ID = tid
	p.m[tid] = r
	return r, true
}

// release drops r's payload and queues it for reuse. The caller has already
// removed r from the table and holds the last pointer to it. Records
// installed through Put are the caller's own objects; reusing them is just as
// safe.
func (p *Partition) release(r *Record) {
	*r = Record{}
	p.free = append(p.free, r)
}

// Put installs rec under its transaction id, replacing any existing record.
func (p *Partition) Put(rec *Record) { p.m[rec.Txn.ID] = rec }

// Delete removes the record for tid. The record is recycled: pointers to it
// obtained earlier must not be used again.
func (p *Partition) Delete(tid timestamp.TxnID) {
	if r := p.m[tid]; r != nil {
		delete(p.m, tid)
		p.release(r)
	}
}

// Len returns the number of records.
func (p *Partition) Len() int { return len(p.m) }

// Range calls fn for each record until fn returns false.
func (p *Partition) Range(fn func(r *Record) bool) {
	for _, r := range p.m {
		if !fn(r) {
			return
		}
	}
}

// Snapshot exports the partition as wire entries tagged with coreID, for
// epoch-change aggregation.
func (p *Partition) Snapshot(coreID uint32) []message.TRecordEntry {
	out := make([]message.TRecordEntry, 0, len(p.m))
	for _, r := range p.m {
		out = append(out, message.TRecordEntry{
			Txn:        r.Txn,
			TS:         r.TS,
			Status:     r.Status,
			View:       r.View,
			AcceptView: r.AcceptView,
			CoreID:     coreID,
		})
	}
	return out
}

// Compact removes records with a final status (COMMITTED or ABORTED), the
// trimming the paper performs after an epoch change checkpoint. It returns
// the number of records removed. Like Delete, it recycles what it removes.
func (p *Partition) Compact() int {
	n := 0
	for tid, r := range p.m {
		if r.Status.Final() {
			delete(p.m, tid)
			p.release(r)
			n++
		}
	}
	return n
}

// Shared is a whole-replica transaction record protected by a single mutex,
// shared by every core — the cross-core coordination point of the TAPIR-like
// and KuaFu++ baselines ("KuaFu++ and TAPIR share a single record per
// replica ... synchronized with simple mutexes").
type Shared struct {
	mu sync.Mutex
	p  *Partition
}

// NewShared returns an empty shared record.
func NewShared() *Shared {
	return &Shared{p: NewPartition()}
}

// Do runs fn with the record table locked. All access to the underlying
// partition must go through Do (or a Lock/Unlock pair); fn must not retain
// the partition.
func (s *Shared) Do(fn func(p *Partition)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.p)
}

// Lock acquires the record table's mutex and returns the partition. It is
// the closure-free variant of Do for per-message hot paths, where a captured
// closure would cost an allocation per message. The caller must call Unlock
// and must not retain the partition past it.
func (s *Shared) Lock() *Partition {
	s.mu.Lock()
	return s.p
}

// Unlock releases the mutex taken by Lock.
func (s *Shared) Unlock() { s.mu.Unlock() }

// Len returns the number of records (taking the lock).
func (s *Shared) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Len()
}
