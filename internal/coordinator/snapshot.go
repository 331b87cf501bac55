package coordinator

import (
	"bytes"
	"context"
	"errors"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
)

// This file implements the client half of the read-only fast path: snapshot
// reads that commit with zero validation rounds.
//
// A read-only transaction picks a snapshot timestamp s from the client's
// clock and sends one snapshot multi-read (TS = s) per touched partition —
// to EVERY replica of the partition, not one. Each replica answers all keys
// at s and, in the same per-key critical section, raises the key's read
// timestamp to s, so nothing that has not validated there yet can ever
// commit at or below s. A reply is *confirmed* when its Watermark equals s:
// no prepared-but-undecided transaction sits at or below s on any requested
// key at that replica.
//
// Safety argument (see DESIGN.md "Read-only fast path" for the full
// version): any transaction T with timestamp ts <= s that commits — now or
// later, on the fast path, slow path, or through recovery — must hold
// VALIDATED-OK records at more replicas than can sit outside the confirmed
// set M. The pigeonhole member X in the intersection either (a) applied T
// already, so X's answers reflect it; (b) held T prepared-but-undecided, so
// X's watermark was below s and X was not confirmed — contradiction; or (c)
// validated T after serving the snapshot, which the rts guard forbids
// (ValidateWrite rejects ts < rts = s, and ts == s is impossible because s
// carries this client's unique id). The required |M| is Replicas-ceil(f/2):
// the smallest recovery rule that can resurrect a commit needs ceil(f/2)+1
// VALIDATED-OK records (DecideOutcome rule 4 and the epoch-change merge),
// and n-|M| must stay below that. For the default 3-replica topology this
// is just a majority (2 of 3).
//
// Values are merged across confirmed replies per key: the newest version
// wins. A plain write at the newest timestamp is final by construction
// (lower confirmed replies are benign lag: the write committed, they just
// have not applied it). An op-derived version is not: ops merging below a
// version re-materialize its value in place, so two replicas can hold the
// same WTS with different bytes, or one can be missing a merged op
// entirely. Op-derived results therefore settle only if every confirmed
// reply agrees exactly (same WTS, same bytes); anything else retries and
// eventually demotes to the classic validated path. The residual risk — all
// confirmed replies agreeing on coincidentally equal wrong bytes — is
// exactly the strength of the value-hash check the classic path already
// relies on (see message.ReadSetEntry).

// errROUnconfirmed reports that a snapshot read could not assemble enough
// confirmed, settled replies within its attempt budget. The caller retries
// at a rounded-down snapshot or demotes to the classic validated path.
var errROUnconfirmed = errors.New("coordinator: snapshot not confirmed")

// roRetries bounds the resends of a snapshot read per partition before the
// round gives up. The fast path is an optimization with a sound fallback, so
// the budget is deliberately tiny compared to cfg.Retries.
const roRetries = 2

// roQuorum returns the confirmed-reply quorum the fast path needs per
// partition: Replicas - ceil(f/2), so that any transaction holding enough
// VALIDATED-OK records to ever commit (>= ceil(f/2)+1, recovery rule 4)
// must hold one inside the confirmed set.
func roQuorum(t topo.Topology) int { return t.Replicas - (t.F()+1)/2 }

// roKeyState accumulates one key's answers across confirmed replies.
type roKeyState struct {
	seen  int
	res   message.ReadResult
	mixed bool // confirmed replies disagree at the same version
	below bool // some confirmed reply is strictly older than res
}

// merge folds one confirmed reply's answer into the state and reports whether
// it became the state's result — copied by value, its bytes still the reply's
// (readRound.keep).
func (s *roKeyState) merge(r *message.ReadResult) (adopted bool) {
	if s.seen == 0 {
		s.seen = 1
		s.res = *r
		return true
	}
	s.seen++
	switch {
	case r.OK == s.res.OK && r.WTS == s.res.WTS:
		if !bytes.Equal(r.Value, s.res.Value) {
			s.mixed = true // same version, different materialization
		}
	case r.OK && (!s.res.OK || s.res.WTS.Less(r.WTS)):
		s.below = true // previous best is now known to lag
		s.res = *r
		return true
	default:
		s.below = true // r lags the best
	}
	return false
}

// settled reports whether the key's merged answer is final with respect to
// the confirmed replies seen so far. Plain writes settle on the newest
// version; op-derived versions settle only on exact agreement.
func (s *roKeyState) settled() bool {
	if s.seen == 0 || s.mixed {
		return false
	}
	if !s.res.OK || s.res.Op == message.OpNone {
		return true
	}
	return !s.below
}

// allSettled reports whether every key's merged answer is final.
func allSettled(keys []roKeyState) bool {
	for i := range keys {
		if !keys[i].settled() {
			return false
		}
	}
	return true
}

// snapshotBegin runs the first snapshot operation of a read-only
// transaction: a read round at a fresh snapshot timestamp, and on an
// unconfirmed round one retry at the rounded-down watermark the replies
// advertised — provided it stays above lastTS, so one session's reads never
// travel backwards past its own commits. It returns the merged results and
// the snapshot timestamp that settled. The only errors are errROUnconfirmed,
// ErrWrongShard and the error of an expired context or a closed endpoint.
func (c *Coordinator) snapshotBegin(ctx context.Context, keys []string) ([]message.ReadResult, timestamp.Timestamp, error) {
	s := c.gen.NextTimestamp()
	res, err := c.read(ctx, keys, s)
	if minW := c.reads.minW; errors.Is(err, errROUnconfirmed) && c.lastTS.Less(minW) && minW.Less(s) && !minW.IsZero() {
		c.obs.Inc(obs.RORoundDown)
		if res, err2 := c.read(ctx, keys, minW); err2 == nil {
			return res, minW, nil
		}
	}
	if err != nil {
		s = timestamp.Timestamp{}
	}
	return res, s, err
}

// ReadOnly declares the transaction read-only, routing its reads through the
// snapshot fast path: all reads are served at one snapshot timestamp, and —
// if every touched partition confirms the snapshot — Commit succeeds locally
// with zero validation rounds and zero messages. Call it before the first
// read. The declaration is advisory, not a straitjacket: a marked
// transaction that goes on to write, or whose snapshot cannot be confirmed,
// demotes to the classic validated path (the snapshot reads join the read
// set and validate like any others).
func (t *Txn) ReadOnly() {
	t.ro = true
	if len(t.reads) > 0 || len(t.writes) > 0 || len(t.ops) > 0 {
		return // too late: commit classically
	}
	t.roViable = true
}

// SnapshotRead performs a strongly-consistent read of key: a read-only
// transaction of one read, retried until it commits. The value is
// serializable with respect to every committed transaction; on the fast path
// it costs a single snapshot round, and on an unconfirmed snapshot it demotes
// to the classic validated read. ok is false for a key that has never been
// written.
func (c *Coordinator) SnapshotRead(ctx context.Context, key string) ([]byte, timestamp.Timestamp, bool, error) {
	var (
		val      []byte
		ver      timestamp.Timestamp
		timedOut error
	)
	err := c.Run(ctx, func(t *Txn) error {
		t.ReadOnly()
		v, err := t.Read(key)
		if errors.Is(err, ErrTimeout) {
			// The read has spent a whole retry budget. Run would go on
			// retrying it for as long as ctx lasts, which for a caller without
			// a deadline is forever.
			timedOut = err
			return errROUnconfirmed // anything Run does not retry
		}
		if err != nil {
			return err
		}
		val, ver = v, t.reads[0].WTS
		return nil
	})
	if timedOut != nil {
		err = timedOut
	}
	if err != nil {
		return nil, timestamp.Timestamp{}, false, err
	}
	return val, ver, !ver.IsZero(), nil
}
