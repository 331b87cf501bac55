// Package vstore implements Meerkat's versioned storage layer: a sharded
// concurrent hash table whose entries carry, per key, the version history
// plus the concurrency-control metadata of the paper's §4.2 —
//
//   - wts: the write timestamp of the latest committed version,
//   - rts: the largest timestamp of any committed transaction that read the
//     key,
//   - readers: timestamps of pending (validated, not yet finalized)
//     transactions that read the key,
//   - writers: timestamps of pending transactions that wrote the key.
//
// All state is partitioned per key and protected by a per-key lock, so
// transactions touching disjoint keys never contend — the storage half of
// the Zero-Coordination Principle. The same store backs Meerkat, Meerkat-PB,
// TAPIR-like, and KuaFu++, mirroring the paper's shared storage layer.
//
// The key index is a typed open-addressed table per shard (index.go): one
// hash, one probe sequence over atomic slot loads, no interface boxing and no
// lock on a hit. Behind it, each entry keeps its committed versions by value
// in one array, oldest first, read and written only under the entry's lock —
// the same lock validation takes, for the same "small atomic regions": a
// read copies out the newest slot, an install writes a slot in place. A key
// starts with one slot; its first commit grows the array straight to
// MaxVersions (doubling when unbounded), and from then on an in-order install
// shifts the array down by one and writes the last slot, allocating nothing.
//
// What a caller takes away is a Version, a copy: its value and merge-record
// arrays are never written after they are installed — a re-materialized op
// gets a fresh value slice — so a Version stays intact after the store's
// slots have moved on. See DESIGN.md ("Hot-path performance").
package vstore

import (
	"sync"
	"sync/atomic"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/timestamp"
)

// Version is one committed value of a key. A version produced by a
// commutative operation (CommitOp) records the operation alongside the
// materialized value: Op/OpDelta/OpArg are the merge record that lets the
// store re-materialize this version when an older write or op is folded in
// beneath it. Plain writes have Op == OpNone and their value never depends
// on a predecessor.
type Version struct {
	Value   []byte
	WTS     timestamp.Timestamp // timestamp of the transaction that wrote it
	Op      message.OpKind      // OpNone for plain writes
	OpDelta int64               // numeric-op operand
	OpArg   []byte              // append-op operand
}

// tsSet is a small unordered set of timestamps. Pending reader/writer sets
// hold one element per in-flight conflicting transaction, so linear scans
// beat any tree or map at realistic sizes. ts starts out aliasing inline (in
// the set's own entry, which is never copied), so a key's first pending
// reader or writer allocates nothing; only a second concurrent one spills.
type tsSet struct {
	ts     []timestamp.Timestamp
	inline [1]timestamp.Timestamp
}

func (s *tsSet) add(t timestamp.Timestamp) {
	if s.ts == nil {
		s.ts = s.inline[:0]
	}
	s.ts = append(s.ts, t)
}

func (s *tsSet) remove(t timestamp.Timestamp) {
	for i := range s.ts {
		if s.ts[i] == t {
			last := len(s.ts) - 1
			s.ts[i] = s.ts[last]
			s.ts = s.ts[:last]
			return
		}
	}
}

// min returns the smallest timestamp and true, or false if empty.
func (s *tsSet) min() (timestamp.Timestamp, bool) {
	if len(s.ts) == 0 {
		return timestamp.Timestamp{}, false
	}
	m := s.ts[0]
	for _, t := range s.ts[1:] {
		if t.Less(m) {
			m = t
		}
	}
	return m, true
}

// max returns the largest timestamp and true, or false if empty.
func (s *tsSet) max() (timestamp.Timestamp, bool) {
	if len(s.ts) == 0 {
		return timestamp.Timestamp{}, false
	}
	m := s.ts[0]
	for _, t := range s.ts[1:] {
		if m.Less(t) {
			m = t
		}
	}
	return m, true
}

// node is one retained version of a key: a slot of its entry's vers array,
// read and written under the entry's lock.
type node struct {
	value []byte // never written in place: a new value is a new slice
	wts   timestamp.Timestamp
	op    *opRecord // merge record of a commutative op; nil for plain writes

	// vhash is message.HashValue(value). Read validation compares the latest
	// version's against the hash the client computed over the bytes it read:
	// an op that merged below the latest version re-materializes the value
	// WITHOUT advancing wts, so matching timestamps alone would let a reader
	// validate against a value that no longer exists.
	vhash uint64
}

// opRecord is what CommitOp keeps of an operation so the version can be
// re-materialized over a different predecessor. It is never written after
// CommitOp makes it, so a slot that moves keeps pointing at the same one.
type opRecord struct {
	kind  message.OpKind
	delta int64  // numeric-op operand
	arg   []byte // append-op operand
}

func (n *node) version() Version {
	v := Version{Value: n.value, WTS: n.wts}
	if n.op != nil {
		v.Op, v.OpDelta, v.OpArg = n.op.kind, n.op.delta, n.op.arg
	}
	return v
}

// materialize completes a version about to sit directly above a version of
// value base (nil at the bottom of the history): an op's value is computed
// from base into a fresh slice, then hashed.
func (n *node) materialize(base []byte) {
	if n.op != nil {
		n.value = message.ApplyOp(nil, base, n.op.kind, n.op.delta, n.op.arg)
	}
	n.vhash = message.HashValue(n.value)
}

// entry is the per-key record. Its mutex is the only lock a non-conflicting
// transaction ever takes in the storage layer, and only for the duration of
// one read, check or install — the paper's "small atomic regions".
type entry struct {
	// key and hash identify the entry to the index (index.go); immutable,
	// and first so the probe's compare pulls in the lock's cache line.
	key  string
	hash uint64

	mu sync.Mutex

	// vers holds the retained versions, ascending by WTS; the last is the
	// latest, and it is empty iff the key has no committed version. Under mu
	// only.
	vers []node

	// baseTrimmed records that the value preceding the oldest retained
	// version is unknown: either insertLocked trimmed history to MaxVersions,
	// or the entry was imported (ImportState, which gets only the latest
	// version). An op folded in below the chain then cannot
	// re-materialize from its true predecessor and takes the
	// arithmetic-recovery path instead.
	baseTrimmed bool

	rts     timestamp.Timestamp
	writers tsSet
	readers tsSet

	// appliedAt is the deployment clock's reading at the last committed
	// mutation of this entry — version install, rts advance, or load. It is
	// deliberately NOT the transaction timestamp: a transaction finalized via
	// the sweeper or a backup coordinator can commit with a TS assigned long
	// before, and delta state transfer must still ship it to a replica that
	// was down when the commit was applied. See ExportShardSince.
	appliedAt int64
}

const defaultShards = 256

// Config tunes a Store.
type Config struct {
	// Shards is the number of hash-table shards; must be a power of two.
	// Defaults to 256.
	Shards int
	// MaxVersions bounds the per-key version history; older versions are
	// trimmed on install. 0 means keep 8 (enough for the out-of-order
	// reads the protocol generates). Negative means unbounded.
	MaxVersions int
	// Clock stamps each entry's last committed mutation (appliedAt), the
	// wall axis of delta state transfer. Nil means the machine's clock.
	Clock clock.Clock
}

// Store is the versioned storage layer.
type Store struct {
	shards      []shard
	mask        uint64
	maxVersions int
	clk         clock.Clock

	// Commutative-op telemetry: opsMerged counts committed ops folded into
	// version chains; opsRecovered counts the out-of-window folds that had
	// to use arithmetic recovery because the op's predecessor version was
	// trimmed (see recoveredValue).
	opsMerged    atomic.Uint64
	opsRecovered atomic.Uint64
}

// New returns an empty Store.
func New(cfg Config) *Store {
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards
	}
	if n&(n-1) != 0 {
		panic("vstore: Shards must be a power of two")
	}
	maxV := cfg.MaxVersions
	if maxV == 0 {
		maxV = 8
	}
	s := &Store{shards: make([]shard, n), mask: uint64(n - 1), maxVersions: maxV, clk: clock.Or(cfg.Clock)}
	for i := range s.shards {
		s.shards[i].table.Store(emptyTable)
	}
	return s
}

// Load installs an initial version of key at ts, bypassing concurrency
// control. It is meant for bulk-loading the database before a run.
func (s *Store) Load(key string, value []byte, ts timestamp.Timestamp) {
	e := s.getOrCreate(key)
	e.mu.Lock()
	e.insertLocked(node{value: value, wts: ts}, s)
	e.mu.Unlock()
}

// Read returns the latest committed version of key. ok is false if the key
// has never been written; the returned WTS is then Zero, which is exactly
// the version a read-set entry should carry so that validation detects a
// concurrent first write.
//
// Read takes the key's lock for the copy of one slot, the lock ValidateRead
// and CommitRead take on the same key; the index probe in front of it takes
// none.
func (s *Store) Read(key string) (Version, bool) {
	e := s.get(key)
	if e == nil {
		return Version{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := e.latest(); n != nil {
		return n.version(), true
	}
	return Version{}, false
}

// latest returns the newest retained version, or nil if there is none.
// Caller holds e.mu.
func (e *entry) latest() *node {
	if len(e.vers) == 0 {
		return nil
	}
	return &e.vers[len(e.vers)-1]
}

// SnapshotRead serves one key of a read-only snapshot transaction at snap.
// In a single critical section it
//
//  1. raises the key's read timestamp to snap, so any write or op that has
//     not yet validated here can never commit at or below snap
//     (ValidateWrite checks ts < rts), and
//  2. computes the key's *confirmation bound*: snap itself if no pending
//     writer sits at or below snap, else just below the earliest such writer
//     (that writer's outcome is still undecided, so versions at or under
//     snap are not yet final with respect to this replica).
//
// The returned version is the newest committed one with WTS <= snap (ok
// false if none). The entry is created if missing: the rts guard must hold
// for never-written keys too, otherwise a later first write could slide
// under an already-confirmed snapshot.
//
// "None" is only an answer while the chain still reaches back to the key's
// first write. Once history below the oldest retained version is gone
// (baseTrimmed: the MaxVersions window moved on, or the entry arrived by
// state transfer) and every retained version is newer than snap, the version
// the snapshot should see is unknowable here, so the bound comes back Zero —
// unconfirmed — and the coordinator retries elsewhere or demotes to the
// validated path rather than reading a hot key as never written.
func (s *Store) SnapshotRead(key string, snap timestamp.Timestamp) (Version, timestamp.Timestamp, bool) {
	e := s.getOrCreate(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rts.Less(snap) {
		e.rts = snap
		e.appliedAt = s.clk.Now()
	}
	bound := snap
	if w, ok := e.writers.min(); ok && w.LessEq(snap) {
		bound = w.Prev()
	}
	for i := len(e.vers) - 1; i >= 0; i-- {
		if e.vers[i].wts.LessEq(snap) {
			return e.vers[i].version(), bound, true
		}
	}
	if e.baseTrimmed && len(e.vers) > 0 {
		bound = timestamp.Zero
	}
	return Version{}, bound, false
}

// ValidateRead performs the read-set half of the paper's Algorithm 1 for a
// single key: it aborts if the latest committed version is newer than the
// one the transaction read (e.wts > readWTS), if the value at that version
// is no longer the value the transaction observed (readVHash differs — a
// commutative op merged in below it; see node.vhash), or if a pending
// writer could commit between that version and ts (ts > min(writers)). On
// success the transaction's timestamp is recorded in the key's pending
// readers.
func (s *Store) ValidateRead(key string, readWTS timestamp.Timestamp, readVHash uint64, ts timestamp.Timestamp) bool {
	e := s.getOrCreate(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	wts, h := timestamp.Timestamp{}, emptyVHash
	if n := e.latest(); n != nil {
		wts, h = n.wts, n.vhash
	}
	if readWTS.Less(wts) || h != readVHash {
		return false
	}
	if w, ok := e.writers.min(); ok && w.Less(ts) {
		return false
	}
	e.readers.add(ts)
	return true
}

// emptyVHash is the hash a client computes for a missing key (it read nil).
var emptyVHash = message.HashValue(nil)

// ValidateWrite performs the write-set half of Algorithm 1 for a single key:
// it aborts if the write at ts would interpose itself before a committed
// read (ts < rts) or before a pending validated read (ts < max(readers)).
// On success the transaction's timestamp is recorded in the key's pending
// writers.
func (s *Store) ValidateWrite(key string, ts timestamp.Timestamp) bool {
	e := s.getOrCreate(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	// Equality aborts too: commit timestamps are client-unique, so ts == rts
	// never happens between ordinary transactions — but a rounded-down
	// snapshot raises rts to a derived timestamp (a pending writer's Prev),
	// which CAN collide with another writer's exact proposal. That snapshot
	// was served without this write, so committing at the same timestamp
	// would serialize the write before the read it never reached.
	if ts.LessEq(e.rts) {
		return false
	}
	if r, ok := e.readers.max(); ok && ts.Less(r) {
		return false
	}
	e.writers.add(ts)
	return true
}

// AddWriter registers ts as a pending writer of key without any OCC check.
// The slow-path accept phase uses it: a replica adopting ACCEPT-COMMIT for a
// transaction it never validated must still surface the undecided write to
// the snapshot-read bound, and the accept decision is Paxos's to make, not
// OCC's to refuse. The registration is cleared by the same CommitWrite/
// CommitOp/RemoveWriter paths as a validated one's.
func (s *Store) AddWriter(key string, ts timestamp.Timestamp) {
	e := s.getOrCreate(key)
	e.mu.Lock()
	e.writers.add(ts)
	e.mu.Unlock()
}

// RemoveReader backs out a pending read registration (abort cleanup).
func (s *Store) RemoveReader(key string, ts timestamp.Timestamp) {
	if e := s.get(key); e != nil {
		e.mu.Lock()
		e.readers.remove(ts)
		e.mu.Unlock()
	}
}

// RemoveWriter backs out a pending write registration (abort cleanup).
func (s *Store) RemoveWriter(key string, ts timestamp.Timestamp) {
	if e := s.get(key); e != nil {
		e.mu.Lock()
		e.writers.remove(ts)
		e.mu.Unlock()
	}
}

// CommitRead finalizes a committed read: it advances the key's rts to ts and
// clears the pending reader registration.
func (s *Store) CommitRead(key string, ts timestamp.Timestamp) {
	e := s.getOrCreate(key)
	e.mu.Lock()
	if e.rts.Less(ts) {
		e.rts = ts
		e.appliedAt = s.clk.Now()
	}
	e.readers.remove(ts)
	e.mu.Unlock()
}

// CommitWrite finalizes a committed write: it clears the pending writer
// registration and installs the new version at ts. Under the Thomas write
// rule, a write older than the latest committed version is skipped — the
// transaction still commits, but the stale value is never observable.
func (s *Store) CommitWrite(key string, value []byte, ts timestamp.Timestamp) {
	e := s.getOrCreate(key)
	e.mu.Lock()
	e.writers.remove(ts)
	e.insertLocked(node{value: value, wts: ts}, s)
	e.mu.Unlock()
}

// CommitOp finalizes a committed commutative operation: it clears the pending
// writer registration and folds the op into the version chain at ts. Unlike a
// blind write, an op that arrives out of timestamp order is not dropped by the
// Thomas rule — it is merged at its position and the newer op-versions above
// it are re-materialized, so every replica converges on the value of applying
// all committed ops in timestamp order regardless of arrival order.
//
// delta carries the operand for numeric kinds (Increment/Max/Min); arg carries
// the appended bytes for Append. The caller may not mutate arg afterwards (the
// version chain retains it, like CommitWrite retains value).
func (s *Store) CommitOp(key string, kind message.OpKind, delta int64, arg []byte, ts timestamp.Timestamp) {
	if !kind.Valid() {
		s.RemoveWriter(key, ts)
		return
	}
	e := s.getOrCreate(key)
	n := node{wts: ts, op: &opRecord{kind: kind, delta: delta, arg: arg}}
	e.mu.Lock()
	e.writers.remove(ts)
	recovered := e.insertLocked(n, s)
	e.mu.Unlock()
	s.opsMerged.Add(1)
	if recovered {
		s.opsRecovered.Add(1)
	}
}

// OpStats reports the commutative-op counters: merged is the number of
// committed ops folded into version chains, recovered the subset that
// arrived below the retained history and took the arithmetic-recovery path
// (see recoveredValue).
func (s *Store) OpStats() (merged, recovered uint64) {
	return s.opsMerged.Load(), s.opsRecovered.Load()
}

// insertLocked folds one committed version — a plain write or a commutative
// op (n.op != nil, value not yet materialized) — into the history at its
// timestamp position. Caller holds e.mu.
//
// The rules, in order:
//
//   - A version with the same WTS already exists: skip. Commit records are
//     replayed (WAL recovery, duplicate finalize), and a transaction installs
//     at most one version per key, so same-WTS means already applied.
//   - n is newer than every retained version: it becomes latest. Ops
//     materialize from the previous latest value here — the hot path, which
//     writes the last slot.
//   - The next-newer retained version is a plain write: the Thomas write
//     rule extended to ops — that write's value does not depend on its
//     predecessor, so the incoming version can never become (or change) the
//     latest value. It is still committed history, though, and a snapshot
//     read between the two timestamps must see it (dropping it let a
//     read-only transaction confirm the version below a committed write),
//     so it is inserted at its position like any other. The one exception
//     is the bottom of the history under a trimmed base: what lies below the
//     oldest version is unknown, SnapshotRead refuses to confirm there, and
//     the version is skipped. That also keeps state-transfer imports
//     idempotent: an imported materialized value (always a plain write,
//     baseTrimmed) at a newer WTS absorbs any late replay of the ops it
//     already includes.
//   - Otherwise insert n at its position, then re-materialize the run of
//     op-versions above it from their new predecessors, in place, stopping at
//     the first plain write (which is independent of everything below it).
//     Each re-materialized value is a fresh slice, never the old value's
//     array, which a Version handed out earlier may still hold. A plain
//     write supplies the base itself; an op needs its predecessor's value —
//     if that predecessor was trimmed (baseTrimmed and bottom of the
//     history), exact re-materialization is impossible and recoveredValue
//     folds the op into each version of the bottom run arithmetically
//     instead; n itself is then not retained.
//
// A history that grows past MaxVersions loses its oldest version. Returns
// true when the op had to take the arithmetic-recovery path.
func (e *entry) insertLocked(n node, s *Store) (recovered bool) {
	if !timestamp.Zero.Less(n.wts) {
		// The empty history behaves as a plain write at the Zero timestamp:
		// versions at or below it are never observable.
		return false
	}
	maxV, vs := s.maxVersions, e.vers
	// n lands at pos: above every version at or below its timestamp, directly
	// below vs[pos] when it arrived out of order.
	pos := len(vs)
	for pos > 0 && n.wts.Less(vs[pos-1].wts) {
		pos--
	}
	var base []byte
	if pos > 0 {
		if vs[pos-1].wts == n.wts {
			return false // already applied (idempotent replay)
		}
		base = vs[pos-1].value
	}
	if pos == 0 && len(vs) > 0 && e.baseTrimmed {
		if vs[0].op == nil {
			return false // below a trimmed base and masked by the plain write above
		}
		if n.op != nil {
			suffixLen := 0
			for i := 0; i < len(vs) && vs[i].op != nil; i++ {
				v := &vs[i]
				v.value = recoveredValue(v, n.op, &suffixLen)
				v.vhash = message.HashValue(v.value)
			}
			e.appliedAt = s.clk.Now()
			return true
		}
	}
	n.materialize(base)
	if maxV > 0 && len(vs) >= maxV {
		// Full: the insert trims the oldest version, so the versions below
		// pos move down one and n takes the slot that frees — for an in-order
		// install, the last. At pos 0 n is the version trimmed, and still the
		// predecessor of the run above.
		if pos > 0 {
			copy(vs, vs[1:pos])
			vs[pos-1] = n
		}
		e.baseTrimmed = true
	} else {
		vs = e.room(maxV)
		copy(vs[pos+1:], vs[pos:])
		vs[pos] = n
		pos++
	}
	for prev := n.value; pos < len(vs) && vs[pos].op != nil; pos++ {
		vs[pos].materialize(prev)
		prev = vs[pos].value
	}
	e.appliedAt = s.clk.Now()
	return false
}

// room lengthens vers by one slot and returns it. A full array is replaced:
// a key's first version gets one slot, its second the maxV it will keep, and
// an unbounded history (maxV < 0) doubles. Caller holds e.mu.
func (e *entry) room(maxV int) []node {
	n := len(e.vers)
	if n == cap(e.vers) {
		c := 2 * n
		switch {
		case n == 0:
			c = 1
		case maxV > n:
			c = maxV
		}
		vs := make([]node, n, c)
		copy(vs, e.vers)
		e.vers = vs
	}
	e.vers = e.vers[:n+1]
	return e.vers
}

// recoveredValue returns the value of retained op-version v after folding in
// an op whose true position is below every retained version. Exact
// reconstruction needs the trimmed predecessor value, which is gone; but the
// op algebra still allows exact recovery for the common same-kind runs:
//
//   - increment: adding delta below an increment run shifts every
//     materialized sum in the run by delta.
//   - max/min: folding the operand into each accumulated extreme is the
//     same as merging it first (associative + commutative).
//   - append: each run value is <lost base> + <args so far>; the incoming
//     arg splices in front of the accumulated suffix (suffixLen carries the
//     run's append bytes so far, oldest version first).
//
// insertLocked stops the fold at the first plain write, which masks the op.
// Mixed-kind runs fall back to the same per-version folds, which is
// best-effort (the interleaving of kinds is not invertible without the
// base); both paths are deterministic, and the caller counts every recovery
// so operators can see when history pressure (MaxVersions too small for the
// op reordering window) is costing precision.
func recoveredValue(v *node, op *opRecord, suffixLen *int) []byte {
	switch op.kind {
	case message.OpIncrement:
		base, _ := message.ParseIntValue(v.value)
		return message.AppendIntValue(nil, base+op.delta)
	case message.OpMax:
		if cur, ok := message.ParseIntValue(v.value); !ok || cur < op.delta {
			return message.AppendIntValue(nil, op.delta)
		}
	case message.OpMin:
		if cur, ok := message.ParseIntValue(v.value); !ok || cur > op.delta {
			return message.AppendIntValue(nil, op.delta)
		}
	case message.OpAppend:
		if v.op.kind == message.OpAppend {
			*suffixLen += len(v.op.arg)
		}
		cut := max(len(v.value)-*suffixLen, 0)
		nv := make([]byte, 0, len(v.value)+len(op.arg))
		nv = append(nv, v.value[:cut]...)
		nv = append(nv, op.arg...)
		return append(nv, v.value[cut:]...)
	}
	return v.value
}

// Pending reports the sizes of the key's pending reader and writer sets.
// Zero values are returned for unknown keys. Intended for tests and for the
// recovery path's sanity checks.
func (s *Store) Pending(key string) (readers, writers int) {
	e := s.get(key)
	if e == nil {
		return 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.readers.ts), len(e.writers.ts)
}

// Meta returns the key's committed metadata (latest wts and rts).
func (s *Store) Meta(key string) (wts, rts timestamp.Timestamp) {
	e := s.get(key)
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := e.latest(); n != nil {
		wts = n.wts
	}
	return wts, e.rts
}

// Versions returns a copy of the key's committed versions, oldest first.
// Intended for tests.
func (s *Store) Versions(key string) []Version {
	e := s.get(key)
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Version, len(e.vers))
	for i := range e.vers {
		out[i] = e.vers[i].version()
	}
	return out
}

// Len returns the number of keys present (committed or with pending state).
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		n += int(s.shards[i].n.Load())
	}
	return n
}

// Counts reports the number of keys present and the total committed versions
// retained across all of them. It is a scrape-path helper (observability
// gauges): it walks every shard and briefly takes each per-key lock, so it
// must not be called from transaction processing.
func (s *Store) Counts() (keys, versions uint64) {
	for i := range s.shards {
		s.shards[i].each(func(e *entry) {
			keys++
			e.mu.Lock()
			versions += uint64(len(e.vers))
			e.mu.Unlock()
		})
	}
	return
}

// NumShards returns the shard count, the pagination unit for state export.
func (s *Store) NumShards() int { return len(s.shards) }

// ExportShard snapshots the committed state of one shard: every key's latest
// version and read timestamp, including keys that were read but never
// written. Pending readers/writers are deliberately excluded: in-flight
// transactions are reconciled by the epoch change that follows a transfer.
func (s *Store) ExportShard(i int) []message.KeyState {
	return s.ExportShardSince(i, timestamp.Timestamp{}, 0)
}

// ExportShardSince is ExportShard restricted to keys whose committed state
// changed after a bound, along either of two axes:
//
//   - since (transaction time): the key was written (WTS) or read (RTS) past
//     it. A recovering replica that replayed a local snapshot+log passes its
//     watermark minus a margin to fetch only the recent-TS delta.
//   - sinceWall (local wall clock, UnixNano, 0 = disabled): the key's last
//     committed mutation was applied on THIS store at or after sinceWall.
//     This catches commits whose TS predates any reasonable margin — e.g. a
//     transaction finalized by the sweeper or a backup coordinator long
//     after its TS was assigned — as long as the donor applied them while
//     the requester was down.
//
// A key passing either filter is exported; zero bounds export everything.
func (s *Store) ExportShardSince(i int, since timestamp.Timestamp, sinceWall int64) []message.KeyState {
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	var out []message.KeyState
	s.shards[i].each(func(e *entry) {
		e.mu.Lock()
		if lv := e.latest(); lv != nil {
			if since.Less(lv.wts) || since.Less(e.rts) || (sinceWall > 0 && e.appliedAt >= sinceWall) {
				out = append(out, message.KeyState{Key: e.key, Value: lv.value, WTS: lv.wts, RTS: e.rts})
			}
		} else if !e.rts.IsZero() && (since.Less(e.rts) || (sinceWall > 0 && e.appliedAt >= sinceWall)) {
			// A key that was read (rts raised) but never written has state
			// worth transferring too: dropping the rts would let the importer
			// later validate a write below it, un-serializing the read. Export
			// it with a zero WTS; ImportState installs only the rts.
			out = append(out, message.KeyState{Key: e.key, RTS: e.rts})
		}
		e.mu.Unlock()
	})
	return out
}

// ImportState installs exported key states: each key's latest version and
// read timestamp. Imports are idempotent and monotone (Thomas rule for
// versions, max for rts), so overlapping transfers are safe and importing
// several stores' exports in any order leaves their union. The store keeps
// the states' keys and values.
func (s *Store) ImportState(states []message.KeyState) {
	for i := range states {
		st := &states[i]
		if st.WTS.IsZero() {
			// rts-only export (read but never written): installing a version
			// at timestamp zero would fabricate a committed nil write, so
			// only the read timestamp transfers.
			if !st.RTS.IsZero() {
				s.CommitRead(st.Key, st.RTS)
			}
			continue
		}
		e := s.getOrCreate(st.Key)
		e.mu.Lock()
		e.insertLocked(node{value: st.Value, wts: st.WTS}, s)
		// A transferred state carries only the materialized latest value —
		// the history beneath it lives on the exporting replica. Mark the
		// base unknown so a commutative op replayed from below the imported
		// version folds arithmetically instead of trusting a missing prefix.
		e.baseTrimmed = true
		e.mu.Unlock()
		if !st.RTS.IsZero() {
			s.CommitRead(st.Key, st.RTS)
		}
	}
}
