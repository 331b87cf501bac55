package meerkat

import (
	"context"
	"errors"
	"fmt"

	"meerkat/internal/clock"
	"meerkat/internal/coordinator"
	"meerkat/internal/message"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
)

// Client executes transactions against a DB. Each client embeds its own
// Meerkat transaction coordinator (§4.1): it proposes timestamps from its
// local clock and drives the commit protocol itself, so adding clients adds
// no coordination anywhere. A Client from DB.Client is a Session of one; each
// of a Session's workers is a Client too.
//
// A Client is not safe for concurrent use; create one per goroutine.
type Client struct {
	coord *coordinator.Coordinator
	id    uint64
	// own is the session of one that DB.Client built this client as, which
	// Close closes; nil for a Session's worker, whose session owns it.
	own *coordinator.Session

	// roDefault marks every transaction read-only at Begin (overridden the
	// moment it writes); set by DB.Client's WithReadOnlyDefault option.
	roDefault bool

	// txn is the one wrapper Run hands its body, around the coordinator's one
	// recycled transaction.
	txn Txn

	committed uint64
	aborted   uint64
}

// ClientOption configures a client or session built by DB.Client/DB.Session.
type ClientOption func(*clientOptions)

type clientOptions struct {
	window    int
	roDefault bool
}

// WithPipeline sets the pipeline window: how many transactions the handle
// keeps in flight concurrently. DB.Session defaults to 4; DB.Client only
// accepts 1 (use DB.Session for pipelining — a Client is stop-and-wait by
// construction).
func WithPipeline(n int) ClientOption {
	return func(o *clientOptions) { o.window = n }
}

// WithReadOnlyDefault marks every transaction read-only at Begin, routing
// reads through the one-round snapshot fast path; a transaction that writes
// demotes itself transparently. For read-mostly clients it saves declaring
// Txn.ReadOnly in every body.
func WithReadOnlyDefault() ClientOption {
	return func(o *clientOptions) { o.roDefault = true }
}

// resolveOptions folds opts over the default pipeline window.
func resolveOptions(defWindow int, opts []ClientOption) clientOptions {
	o := clientOptions{window: defWindow}
	for _, opt := range opts {
		opt(&o)
	}
	if o.window < 1 {
		o.window = 1
	}
	return o
}

// coordConfig registers a new client id and builds the coordinator config
// DB.Client and DB.Session share. Each handle gets its own shard-map cache;
// a session's workers share theirs (its refresh is atomic), so one worker's
// redirect re-routes the whole pipeline.
func (db *DB) coordConfig() (coordinator.Config, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return coordinator.Config{}, ErrClusterClosed
	}
	db.nextCli++
	id := db.nextCli
	db.mu.Unlock()

	clk := db.clk
	if db.cfg.ClockSkew != 0 {
		clk = clock.NewSkewed(clk, (int64(id)-4)*int64(db.cfg.ClockSkew), 0)
	}
	return coordinator.Config{
		Topo:            db.topo,
		ClientID:        id,
		Net:             db.net,
		Clock:           clk,
		Timeout:         db.cfg.CommitTimeout,
		Retries:         db.cfg.Retries,
		BackoffBase:     db.cfg.BackoffBase,
		BackoffMax:      db.cfg.BackoffMax,
		DisableFastPath: db.cfg.DisableFastPath,
		ShardMap:        shardmap.NewCache(db.source),
		Seed:            db.cfg.Seed + int64(id),
		Obs:             db.obs.NewShard(),
	}, nil
}

// Client returns a new single-transaction client routing by its own private
// shard-map cache: a session of one. It rejects WithPipeline windows above 1
// — pipelining is DB.Session's job.
func (db *DB) Client(opts ...ClientOption) (*Client, error) {
	o := resolveOptions(1, opts)
	if o.window > 1 {
		return nil, fmt.Errorf("meerkat: Client does not pipeline (window %d); use DB.Session", o.window)
	}
	s, err := db.session(o)
	if err != nil {
		return nil, err
	}
	cl := s.clients[0]
	cl.own = s.inner
	return cl, nil
}

// ID returns the client's unique id.
func (cl *Client) ID() uint64 { return cl.id }

// Stats reports how many of this client's transactions committed and how
// many aborted in validation. (Clients are single-goroutine, so these are
// plain counters.)
func (cl *Client) Stats() (committed, aborted uint64) {
	return cl.committed, cl.aborted
}

// Close releases the client's endpoint; on a Session's worker it is a no-op
// (the session owns the endpoint).
func (cl *Client) Close() {
	if cl.own != nil {
		cl.own.Close()
	}
}

// Txn is an in-progress interactive transaction. Reads see the latest
// committed versions (plus the transaction's own writes); writes are
// buffered client-side until Commit.
//
// A transaction carries its context: the one Client.Run was given bounds
// every Read, ReadMany and the commit inside it; a transaction from Begin is
// bounded only by the retry budget (Config.CommitTimeout × Config.Retries).
// Every error a Txn returns unwraps to one of the package sentinels.
type Txn struct {
	inner *coordinator.Txn
	cl    *Client
}

// Begin starts a transaction outside any context (see Run for one that stops
// when its caller gives up). Clients opened with WithReadOnlyDefault start it
// read-only (see Txn.ReadOnly; a later write demotes it transparently).
func (cl *Client) Begin() *Txn {
	inner := cl.coord.Begin()
	if cl.roDefault {
		inner.ReadOnly()
	}
	return &Txn{inner: inner, cl: cl}
}

// Read returns the value of key within the transaction. A key that has
// never been written reads as nil (and the absence is validated at commit:
// if another transaction creates the key concurrently, this transaction
// aborts). Under Run, the read's waits shrink to the context's remaining time
// and cancellation ends it early; reads are idempotent, so a context-expired
// read is always safe to retry.
func (t *Txn) Read(key string) ([]byte, error) {
	val, err := t.inner.Read(key)
	return val, mapErr(err)
}

// ReadMany reads a batch of keys in one execution-phase round trip per
// touched partition (values index-aligned with keys), with the same snapshot
// semantics as per-key Read. Use it when a transaction's read set is known
// up front — a timeline fetch, a multi-get — to avoid paying one network
// round trip per key. The transaction's context bounds it exactly as it
// bounds Read.
//
// The returned slice belongs to the transaction and is valid for its life —
// under Run, until the body returns; copy it to keep it longer. The []byte
// values in it stay valid for as long as the caller keeps them.
func (t *Txn) ReadMany(keys []string) ([][]byte, error) {
	vals, err := t.inner.ReadMany(keys)
	return vals, mapErr(err)
}

// Write buffers a write of key=value.
func (t *Txn) Write(key string, value []byte) {
	t.inner.Write(key, value)
}

// ReadOnly declares the transaction read-only, routing its reads through the
// snapshot fast path: every read is served at one snapshot timestamp and,
// when each touched replica group confirms the snapshot, Commit succeeds
// locally with zero validation rounds and zero messages. Call it before the
// first read. The declaration is advisory: a marked transaction that goes on
// to write (or whose snapshot cannot be confirmed) silently demotes to the
// classic validated commit.
func (t *Txn) ReadOnly() { t.inner.ReadOnly() }

// Add buffers a server-side increment of key by delta (negative deltas
// decrement; a missing or non-numeric value counts as 0). Unlike a
// read-increment-write, the operation itself ships to the replicas and
// carries no read version, so concurrent Adds to the same key merge in
// timestamp order instead of aborting one another — a hot counter stops
// being an abort hotspot. Values are decimal ASCII, interoperable with
// Read/Write.
func (t *Txn) Add(key string, delta int64) { t.inner.Add(key, delta) }

// Append buffers a server-side append of b to key's value, with the same
// merge-not-abort semantics as Add. The caller must not mutate b until
// Commit returns.
func (t *Txn) Append(key string, b []byte) { t.inner.Append(key, b) }

// MergeMax buffers a server-side monotone merge: key's value becomes
// max(current, v), treating a missing or non-numeric current value as v.
// Useful for high-water marks maintained by many writers.
func (t *Txn) MergeMax(key string, v int64) { t.inner.MergeMax(key, v) }

// MergeMin is the min-merge counterpart of MergeMax (low-water marks).
func (t *Txn) MergeMin(key string, v int64) { t.inner.MergeMin(key, v) }

// Commit runs Meerkat's validation and write phases. It returns true if the
// transaction committed and false if optimistic validation failed because a
// conflicting transaction won; in the latter case the caller usually retries
// (Client.Run automates this). A non-nil error always unwraps to one of the
// package sentinels — almost always ErrTimeout, meaning the outcome is
// unknown until Resolve learns it.
func (t *Txn) Commit() (bool, error) {
	ok, err := t.inner.Commit()
	if err == nil {
		if ok {
			t.cl.committed++
		} else {
			t.cl.aborted++
		}
	}
	return ok, mapErr(err)
}

// Resolve learns — or, if still undecided, forces — the final outcome of a
// transaction whose Commit returned ErrTimeout, by running the coordinator
// recovery procedure (§5.3.2) in every partition the commit touched. It
// reports whether the transaction committed; after Resolve the outcome is
// final and the uncertainty ErrTimeout left behind is gone. The transaction's
// context bounds it while it lasts; once that has ended only the retry budget
// does.
func (t *Txn) Resolve() (bool, error) {
	ok, err := t.inner.Resolve()
	if err == nil {
		if ok {
			t.cl.committed++
		} else {
			t.cl.aborted++
		}
	}
	return ok, mapErr(err)
}

// ID returns the transaction id assigned at commit time.
func (t *Txn) ID() timestamp.TxnID { return t.inner.ID() }

// Timestamp returns the transaction's serialization timestamp (meaningful
// once Commit returned true): committed transactions are one-copy
// serializable in timestamp order.
func (t *Txn) Timestamp() timestamp.Timestamp { return t.inner.Timestamp() }

// CommittedReadOnly reports whether Commit went through the read-only fast
// path (zero validation rounds; see ReadOnly), in which case Timestamp is
// the snapshot timestamp.
func (t *Txn) CommittedReadOnly() bool { return t.inner.CommittedReadOnly() }

// ReadSet, WriteSet, and OpSet return copies of the transaction's sets for
// verification tooling (e.g. the serializability checker); the caller owns
// them, and later transactions on the client do not change them.
func (t *Txn) ReadSet() []message.ReadSetEntry   { return t.inner.ReadSet() }
func (t *Txn) WriteSet() []message.WriteSetEntry { return t.inner.WriteSet() }
func (t *Txn) OpSet() []message.OpSetEntry       { return t.inner.OpSet() }

// ErrTxnAborted is what a Run body returns to abandon its transaction.
var ErrTxnAborted = errors.New("meerkat: transaction aborted by caller")

// Run executes fn inside transactions until one commits: the canonical retry
// loop. fn builds the transaction — reads, writes — and returns; Run commits
// it, retrying conflict aborts (and timed-out reads, which are idempotent)
// with capped exponential backoff and full jitter, and resolving timed-out
// commits through the recovery procedure rather than guessing. Run returns
// nil once a transaction commits; an error unwrapping to ErrTimeout (and to
// the context's own error) once ctx expires; and fn's own error, unretried,
// for anything else (return ErrTxnAborted from fn to abandon the
// transaction).
//
// ctx is bound to the Txn handed to fn, so it bounds everything inside — the
// body's Read and ReadMany calls as well as the commit; a deadline on ctx is
// a deadline on Run.
//
// fn may run many times and must be safe to re-execute; it must not call
// Commit itself.
//
// The Txn handed to fn is the client's own, recycled by every attempt and
// every Run: fn must not keep it, or a slice ReadMany returned, past its own
// return. The last attempt's Txn stays readable — ID, Timestamp,
// CommittedReadOnly, the set accessors — after Run returns and until the
// client's next Run, Put or GetStrong. Calling those three on this client from
// inside fn is defined: the nested call is a transaction of its own, on a
// fresh Txn, and leaves fn's untouched.
func (cl *Client) Run(ctx context.Context, fn func(*Txn) error) error {
	t := &cl.txn
	if cl.coord.Running() {
		t = new(Txn) // nested: the outer body still holds cl.txn
	}
	attempts := 0
	err := cl.coord.Run(ctx, func(inner *coordinator.Txn) error {
		attempts++
		if cl.roDefault {
			inner.ReadOnly()
		}
		*t = Txn{inner: inner, cl: cl}
		return fn(t)
	})
	if err == nil {
		cl.committed++
		cl.aborted += uint64(attempts - 1)
		return nil
	}
	if attempts > 0 {
		cl.aborted += uint64(attempts)
	}
	return mapErr(err)
}

// Get is a convenience bare read: it returns the committed value of key as
// seen by one replica — the plain read round of one key, the same round and
// the same message pair Txn.Read and Txn.ReadMany use. Because commit messages
// propagate asynchronously, a bare read may briefly lag the latest commit. For
// a read that is guaranteed serializable with respect to all committed
// transactions, use GetStrong or read inside a transaction.
func (cl *Client) Get(key string) ([]byte, error) {
	val, _, _, err := cl.coord.Read(context.Background(), key)
	return val, mapErr(err)
}

// GetStrong returns a value of key serializable with respect to every
// committed transaction. It rides the read-only fast path — one snapshot
// round, no validation — and demotes to a validated read-only transaction
// when the snapshot cannot be confirmed. It gives up with ErrTimeout once a
// read has spent its whole retry budget, as Get does; a failure unwraps to
// ErrTimeout or ErrClusterClosed.
func (cl *Client) GetStrong(key string) ([]byte, error) {
	val, _, _, err := cl.coord.SnapshotRead(context.Background(), key)
	if err != nil {
		return nil, mapErr(err)
	}
	return val, nil
}

// putAttempts bounds how many conflict aborts Put absorbs before reporting
// ErrConflict.
const putAttempts = 16

// Put is a convenience single-write transaction. It retries validation
// aborts until the write commits or the attempt budget is exhausted; a
// failure unwraps to ErrConflict, ErrTimeout, or ErrClusterClosed.
func (cl *Client) Put(key string, value []byte) error {
	attempts := 0
	return cl.Run(context.Background(), func(t *Txn) error {
		if attempts++; attempts > putAttempts {
			return fmt.Errorf("%w: put did not commit", ErrConflict)
		}
		t.Write(key, value)
		return nil
	})
}
