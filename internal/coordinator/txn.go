package coordinator

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
)

// Txn accumulates a transaction's read and write sets on the client, with
// read-your-writes and read-caching semantics.
//
// Set membership is checked by linear scan, not an index map: OLTP read/write
// sets are a handful of entries (YCSB-T touches 4 keys, Retwis at most a
// dozen), where scanning a slice beats hashing and — unlike two lazily built
// maps — costs the commit hot path zero allocations.
//
// The sets are the transaction's working memory and never leave the
// coordinator: split copies what a commit ships, the accessors hand out
// copies. That is what lets Run recycle one Txn (see reset).
type Txn struct {
	c *Coordinator
	// ctx bounds every blocking call the transaction makes — Read, ReadMany,
	// Commit. It enters in exactly one place: Run binds the context it was
	// given, Begin binds context.Background().
	ctx      context.Context
	reads    []message.ReadSetEntry
	readVals [][]byte
	writes   []message.WriteSetEntry
	ops      []message.OpSetEntry
	// vals is the results buffer: every ReadMany returns a span of it.
	vals [][]byte

	// opErr latches a misuse of the op API (mixing op kinds on one key);
	// Commit surfaces it instead of shipping a transaction the replicas
	// cannot merge.
	opErr error

	// committedAt is the serialization timestamp, set once Commit decides.
	committedAt timestamp.Timestamp
	id          timestamp.TxnID

	// coreID and unresolved record where a timed-out commit was in flight —
	// the processing core and the touched partitions — so Resolve can drive
	// the recovery procedure for exactly those (partition, core) groups.
	// unresolved is non-empty only after Commit returned ErrTimeout.
	coreID     uint32
	unresolved []int

	// ro marks the transaction read-only (ReadOnly was called). roViable is
	// true while the snapshot fast path is still serving it, and clears on
	// demotion — a buffered write or op, or a snapshot that would not
	// confirm. snapTS is the snapshot timestamp, fixed by the first snapshot
	// read so the whole transaction observes one consistent cut.
	ro       bool
	roViable bool
	snapTS   timestamp.Timestamp
	// roCommitted records that Commit took the read-only fast path, in which
	// case committedAt is the snapshot timestamp.
	roCommitted bool
}

// Begin starts a new transaction bounded only by the coordinator's retry
// budget. Transactions that must stop when a caller gives up run under Run.
//
// The Txn is fresh and the caller's own — two may be open at once; only Run
// recycles.
func (c *Coordinator) Begin() *Txn {
	return &Txn{c: c, ctx: context.Background()}
}

// recycle empties s and zeroes its whole backing array, so that what an
// earlier transaction left in it — store versions, caller buffers — is not
// pinned by a parked client.
func recycle[E any](s []E) []E {
	clear(s[:cap(s)])
	return s[:0]
}

// reset makes t a new transaction under ctx that keeps only the capacity of
// its sets. Every other field is cleared by construction.
func (t *Txn) reset(ctx context.Context) {
	*t = Txn{
		c: t.c, ctx: ctx,
		reads: recycle(t.reads), readVals: recycle(t.readVals), vals: recycle(t.vals),
		writes: recycle(t.writes), ops: recycle(t.ops),
		unresolved: t.unresolved[:0],
	}
}

// findWrite returns the write-set position of key, or -1.
func (t *Txn) findWrite(key string) int {
	for i := range t.writes {
		if t.writes[i].Key == key {
			return i
		}
	}
	return -1
}

// findRead returns the read-set position of key, or -1.
func (t *Txn) findRead(key string) int {
	for i := range t.reads {
		if t.reads[i].Key == key {
			return i
		}
	}
	return -1
}

// findOp returns the op-set position of key, or -1.
func (t *Txn) findOp(key string) int {
	for i := range t.ops {
		if t.ops[i].Key == key {
			return i
		}
	}
	return -1
}

// Read returns the value of key as of this transaction's snapshot: a
// buffered write if the transaction wrote the key, the previously read value
// if it already read it, or a fresh versioned read from a replica, bounded by
// the transaction's context (see Coordinator.Read).
//
// Reading a key with a buffered commutative op performs a real versioned read
// (which joins the read set and is validated like any other) and returns the
// op applied to the value read — read-your-ops. Note that this trades back
// the op's abort immunity for that key: the transaction now carries a read
// version a conflicting writer can invalidate.
func (t *Txn) Read(key string) ([]byte, error) {
	if i := t.findWrite(key); i >= 0 {
		return t.writes[i].Value, nil
	}
	if i := t.findRead(key); i >= 0 {
		return t.applyPendingOp(key, t.readVals[i]), nil
	}
	t.c.ro1[0] = key
	res, err := t.fetch(t.c.ro1[:])
	if err != nil {
		return nil, err
	}
	t.record(key, &res[0])
	return t.applyPendingOp(key, res[0].Value), nil
}

// fetch reads keys from the replicas. A read-only-marked transaction is
// served by snapshot rounds for as long as they confirm: the first fixes the
// transaction's snapshot timestamp, later ones must confirm at exactly that
// timestamp (reads at two different snapshots would not be one consistent
// cut). A snapshot that will not confirm demotes the transaction, for good,
// to plain rounds and the classic validated commit.
func (t *Txn) fetch(keys []string) (res []message.ReadResult, err error) {
	c := t.c
	if t.roViable {
		if t.snapTS.IsZero() {
			res, t.snapTS, err = c.snapshotBegin(t.ctx, keys)
		} else {
			res, err = c.read(t.ctx, keys, t.snapTS)
		}
		if !errors.Is(err, errROUnconfirmed) {
			return res, err
		}
		c.obs.Inc(obs.ROFallback)
		t.roViable = false
	}
	return c.read(t.ctx, keys, timestamp.Timestamp{})
}

// record adds a fetched key to the read set. A snapshot read joins it too: if
// the transaction later demotes (a write, or an unconfirmable second fetch),
// it commits classically and these reads validate like any others. VHash
// identifies the observed value, not just its timestamp: a commutative op
// merging below the version would change the value without moving it, and
// validation must notice (see message.ReadSetEntry).
func (t *Txn) record(key string, r *message.ReadResult) {
	t.reads = append(t.reads, message.ReadSetEntry{Key: key, WTS: r.WTS, VHash: message.HashValue(r.Value)})
	t.readVals = append(t.readVals, r.Value)
}

// applyPendingOp materializes the transaction's buffered op for key on top of
// a value read from the store, so reads observe the transaction's own ops.
func (t *Txn) applyPendingOp(key string, val []byte) []byte {
	if i := t.findOp(key); i >= 0 {
		o := &t.ops[i]
		return message.ApplyOp(nil, val, o.Kind, o.Delta, o.Arg)
	}
	return val
}

// ReadMany reads every key in keys as of this transaction's snapshot,
// batching all keys that need a replica round trip into one coordinator
// ReadMany call (one multi-read per touched partition, in parallel). The
// returned values are index-aligned with keys. Buffered writes, earlier
// reads, and duplicate keys within the batch are honored exactly as per-key
// Read would: each key is fetched at most once and lands in the read set at
// most once. The transaction's context bounds the round trips (see
// Coordinator.ReadMany).
//
// The returned slice is a span of the transaction's results buffer, valid for
// the life of the transaction — under Run, until the body returns; a later
// ReadMany appends its own span and leaves earlier ones intact. The []byte
// values themselves stay valid for as long as the caller keeps them.
func (t *Txn) ReadMany(keys []string) ([][]byte, error) {
	fetch := t.c.fetch[:0]
	for _, key := range keys {
		if t.findWrite(key) >= 0 || t.findRead(key) >= 0 {
			continue
		}
		dup := false
		for _, f := range fetch {
			if f == key {
				dup = true
				break
			}
		}
		if !dup {
			fetch = append(fetch, key)
		}
	}
	t.c.fetch = fetch
	if len(fetch) > 0 {
		res, err := t.fetch(fetch)
		if err != nil {
			return nil, err
		}
		// Grow the read set once for the whole batch rather than along the
		// append doubling chain; a recycled Txn already has the room.
		t.reads = slices.Grow(t.reads, len(fetch))
		t.readVals = slices.Grow(t.readVals, len(fetch))
		for j, key := range fetch {
			t.record(key, &res[j])
		}
	}
	// Grown once, never per key; if it moves, the spans handed out earlier
	// keep the array they were cut from.
	n := len(t.vals) + len(keys)
	t.vals = slices.Grow(t.vals, len(keys))[:n]
	vals := t.vals[n-len(keys) : n : n]
	for i, key := range keys {
		if j := t.findWrite(key); j >= 0 {
			vals[i] = t.writes[j].Value
		} else {
			vals[i] = t.applyPendingOp(key, t.readVals[t.findRead(key)])
		}
	}
	return vals, nil
}

// Write buffers a write; nothing reaches any replica until Commit. A write
// replaces any commutative op previously buffered for the key — the blind
// write's value does not depend on the op's outcome.
func (t *Txn) Write(key string, value []byte) {
	t.roViable = false // no longer read-only; commit classically
	if i := t.findOp(key); i >= 0 {
		t.ops = slices.Delete(t.ops, i, i+1)
	}
	if i := t.findWrite(key); i >= 0 {
		t.writes[i].Value = value
		return
	}
	t.writes = append(t.writes, message.WriteSetEntry{Key: key, Value: value})
}

// errMixedOps reports op kinds that cannot be folded into one entry.
var errMixedOps = errors.New("coordinator: mixed op kinds on one key in a single transaction")

// addOp buffers one commutative op for key. Ops on a key the transaction has
// already written fold into the buffered write immediately (the write is this
// transaction's view of the key). Repeat ops of the same kind fold into a
// single entry — increments sum, max/min keep the extreme, appends
// concatenate — so a key carries at most one op-set entry, which is what the
// replicas' merge requires (two ops at the same commit timestamp are
// indistinguishable from a replay). Mixing kinds on one key is not foldable
// without the key's value; it latches an error that Commit returns.
func (t *Txn) addOp(key string, kind message.OpKind, delta int64, arg []byte) {
	t.roViable = false // no longer read-only; commit classically
	if i := t.findWrite(key); i >= 0 {
		t.writes[i].Value = message.ApplyOp(nil, t.writes[i].Value, kind, delta, arg)
		return
	}
	i := t.findOp(key)
	if i < 0 {
		t.ops = append(t.ops, message.OpSetEntry{Key: key, Kind: kind, Delta: delta, Arg: arg})
		return
	}
	o := &t.ops[i]
	if o.Kind != kind {
		if t.opErr == nil {
			t.opErr = fmt.Errorf("%w: %s then %s on %q", errMixedOps, o.Kind, kind, key)
		}
		return
	}
	switch kind {
	case message.OpIncrement:
		o.Delta += delta
	case message.OpMax:
		if delta > o.Delta {
			o.Delta = delta
		}
	case message.OpMin:
		if delta < o.Delta {
			o.Delta = delta
		}
	case message.OpAppend:
		// Never append in place: arg may alias caller memory, and o.Arg may
		// alias a previous caller's.
		merged := make([]byte, 0, len(o.Arg)+len(arg))
		merged = append(merged, o.Arg...)
		merged = append(merged, arg...)
		o.Arg = merged
	}
}

// Add buffers a server-side increment of key by delta (negative deltas
// decrement). The op ships to the replicas instead of a read-version plus
// blind write, so concurrent Adds to the same key merge at their commit
// timestamps rather than aborting each other.
func (t *Txn) Add(key string, delta int64) { t.addOp(key, message.OpIncrement, delta, nil) }

// Append buffers a server-side append of b to key's value. The caller must
// not mutate b until Commit returns.
func (t *Txn) Append(key string, b []byte) { t.addOp(key, message.OpAppend, 0, b) }

// MergeMax buffers a server-side monotone merge: key's value becomes
// max(current, v), treating a missing or non-numeric value as v.
func (t *Txn) MergeMax(key string, v int64) { t.addOp(key, message.OpMax, v, nil) }

// MergeMin buffers the min-merge counterpart of MergeMax.
func (t *Txn) MergeMin(key string, v int64) { t.addOp(key, message.OpMin, v, nil) }

// ReadSetSize, WriteSetSize, and OpSetSize expose set sizes for tests and
// stats.
func (t *Txn) ReadSetSize() int  { return len(t.reads) }
func (t *Txn) WriteSetSize() int { return len(t.writes) }
func (t *Txn) OpSetSize() int    { return len(t.ops) }

// Commit runs the validation and write phases. It returns true if the
// transaction committed, false if it aborted due to conflicts, and an error
// if the outcome could not be determined within the retry budget. The error
// always unwraps to ErrTimeout; Resolve can then learn the final outcome.
//
// The transaction's context maps onto the commit protocol's per-attempt
// waits, and its cancellation ends the retry loops early. A context-expired
// commit is outcome-unknown exactly like a retry-budget timeout — the
// returned error unwraps to both ErrTimeout and the context's error, and
// Resolve applies.
func (t *Txn) Commit() (bool, error) {
	return t.c.commit(t.ctx, t)
}

// Resolve learns — or, if still undecided, forces — the final outcome of a
// transaction whose Commit returned ErrTimeout, by driving the
// cooperative-termination recovery procedure (§5.3.2) in every partition the
// commit touched. It returns whether the transaction committed. Without
// this, a client that timed out can never tell whether its writes landed;
// with it, a history survives fault injection with no maybe-committed holes.
//
// The touched partitions are driven to their recorded decisions in one round,
// side by side, and the results are conjoined, mirroring how commit itself
// combines per-partition verdicts. The transaction's context bounds it while
// it lasts; once it has ended — the very reason the commit's outcome may be
// unknown — only the retry budget does. The coordinator's single-goroutine
// contract applies: Resolve reuses the commit endpoints.
func (t *Txn) Resolve() (bool, error) {
	if len(t.unresolved) == 0 {
		return false, errors.New("coordinator: nothing to resolve (commit did not time out)")
	}
	ctx := t.ctx
	if ctx.Err() != nil {
		ctx = context.WithoutCancel(ctx) // the caller is back to learn what became of the commit
	}
	committed, err := t.c.resolve(ctx, &t.c.round, t.unresolved, t.id, t.coreID, 0)
	if err != nil {
		return false, err
	}
	t.unresolved = t.unresolved[:0]
	if committed {
		t.c.obs.Inc(obs.TxnResolveCommit)
	} else {
		t.c.obs.Inc(obs.TxnResolveAbort)
	}
	return committed, nil
}

// Run executes fn inside transactions until one commits: the canonical
// retry loop. Conflict aborts retry after the capped, jittered backoff;
// read timeouts inside fn retry the same way (reads are idempotent); a
// commit timeout is resolved through the recovery procedure, so Run never
// reports success or failure while the outcome is actually unknown. Run
// returns nil once a transaction commits, the context's error (wrapped in
// ErrTimeout) once ctx expires, and fn's own error — aborting the loop — for
// anything else. fn may be called many times and must be safe to re-execute;
// it should build the transaction and return, leaving Commit to Run.
//
// Every attempt runs on the coordinator's one recycled Txn, reset at the top
// of the attempt: fn must not keep it, or a slice ReadMany returned, past its
// own return. The Txn of the last attempt stays readable — ID, Timestamp,
// CommittedReadOnly, the set accessors — after Run returns and until the
// coordinator's next Run. A Run called from inside fn (SnapshotRead is one)
// would reset the transaction it is inside of, so it gets a fresh Txn instead.
func (c *Coordinator) Run(ctx context.Context, fn func(*Txn) error) error {
	t, outer := &c.txn, c.running
	if outer {
		t = c.Begin()
	}
	c.running = true
	defer func() { c.running = outer }()
	immediate := false
	for txns := 0; ; txns++ { // transactions tried so far: the next one's backoff grows with them
		k := txns
		if immediate {
			k, immediate = 0, false // re-routed: no backoff
		}
		if k > 0 {
			c.Sleep(ctx, drive.BackoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, k-1, &c.rng))
		}
		if err := drive.Expired(ctx); err != nil {
			return err
		}
		t.reset(ctx)
		if err := fn(t); err != nil {
			if errors.Is(err, ErrWrongShard) && ctx.Err() == nil {
				// A read hit a moved range; the map cache was refreshed at
				// the reply site. Retry — immediately if the refresh
				// advanced the map (the re-routed attempt goes to a
				// different group), with backoff if the split is still
				// mid-fence and the new map is not published yet.
				immediate, c.rerouted = c.rerouted, false
				continue
			}
			if errors.Is(err, ErrTimeout) && ctx.Err() == nil {
				continue // a timed-out read is safe to retry
			}
			return err
		}
		ok, err := t.Commit()
		if err != nil {
			if errors.Is(err, ErrWrongShard) && ctx.Err() == nil {
				// The commit aborted on a wrong-shard redirect — a known
				// outcome, not a timeout. Re-route and retry, as above.
				immediate, c.rerouted = c.rerouted, false
				continue
			}
			if !errors.Is(err, ErrTimeout) || ctx.Err() != nil {
				return err
			}
			// Outcome unknown: resolve it rather than guess. A resolve
			// failure keeps the uncertainty, so surface the original error.
			committed, rerr := t.Resolve()
			if rerr != nil {
				return err
			}
			if committed {
				return nil
			}
			continue // resolved to abort: retry
		}
		if ok {
			return nil
		}
		// Conflict abort: back off and retry.
	}
}

// Running reports whether the call comes from inside a Run body.
func (c *Coordinator) Running() bool { return c.running }

// Timestamp returns the transaction's serialization timestamp (valid after
// Commit returned true): committed transactions are one-copy serializable in
// timestamp order.
func (t *Txn) Timestamp() timestamp.Timestamp { return t.committedAt }

// ID returns the transaction id assigned at commit time.
func (t *Txn) ID() timestamp.TxnID { return t.id }

// CommittedReadOnly reports whether Commit went through the read-only fast
// path — zero validation rounds — in which case Timestamp is the snapshot
// timestamp rather than a fresh generator draw.
func (t *Txn) CommittedReadOnly() bool { return t.roCommitted }

// ReadSet, WriteSet, and OpSet return copies of the transaction's sets for
// verification tooling (the serializability checker keeps them in its
// history): the caller owns the copy, which the next transaction on a
// recycled Txn does not rewrite.
func (t *Txn) ReadSet() []message.ReadSetEntry   { return slices.Clone(t.reads) }
func (t *Txn) WriteSet() []message.WriteSetEntry { return slices.Clone(t.writes) }
func (t *Txn) OpSet() []message.OpSetEntry       { return slices.Clone(t.ops) }
