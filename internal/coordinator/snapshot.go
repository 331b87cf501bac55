package coordinator

import (
	"bytes"
	"context"
	"errors"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
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

// roAttempts bounds snapshot-read rounds per partition before giving up.
// The fast path is an optimization with a sound fallback, so the budget is
// deliberately tiny compared to cfg.Retries.
const roAttempts = 3

// roQuorum returns the confirmed-reply quorum the fast path needs per
// partition: Replicas - ceil(f/2), so that any transaction holding enough
// VALIDATED-OK records to ever commit (>= ceil(f/2)+1, recovery rule 4)
// must hold one inside the confirmed set.
func (c *Coordinator) roQuorum() int {
	f := c.cfg.Topo.F()
	return c.cfg.Topo.Replicas - (f+1)/2
}

// roKeyState accumulates one key's answers across confirmed replies.
type roKeyState struct {
	seen  int
	res   message.ReadResult
	mixed bool // confirmed replies disagree at the same version
	below bool // some confirmed reply is strictly older than res
}

// merge folds one confirmed reply's answer into the state.
func (s *roKeyState) merge(r *message.ReadResult) {
	if s.seen == 0 {
		s.seen = 1
		s.res = *r
		return
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
	default:
		s.below = true // r lags the best
	}
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

// sendSnapshotRead broadcasts one snapshot multi-read for partition p at
// snap to every replica (a uniformly chosen core on each).
func (c *Coordinator) sendSnapshotRead(p int, keys []string, snap timestamp.Timestamp, seq uint64) {
	core := uint32(c.rng.Intn(c.cfg.Topo.Cores))
	req := message.Message{Type: message.TypeMultiRead, Keys: keys, TS: snap, Seq: seq, MapVersion: c.mapVersion()}
	c.outs, _ = broadcast(c.eps[1+p], c.group(p, core), &req, c.outs)
}

// snapshotRound reads keys at snapshot timestamp snap: one snapshot
// multi-read round per touched partition, each requiring roQuorum confirmed
// replies whose merged answers settle. Results are index-aligned with keys
// in the scratch reused by the next read operation. minW is the lowest
// watermark observed across all replies (snap when none was lower) — the
// round-down hint on failure. The only errors are errROUnconfirmed,
// ErrWrongShard and the error of an expired context.
func (c *Coordinator) snapshotRound(ctx context.Context, keys []string, snap timestamp.Timestamp) ([]message.ReadResult, timestamp.Timestamp, error) {
	minW := snap
	if len(keys) == 0 {
		return nil, minW, nil
	}
	n := c.cfg.Topo.Replicas
	quorum := c.roQuorum()
	rr := c.groupKeys(keys)
	if cap(c.roKeys) < len(keys) {
		c.roKeys = make([]roKeyState, len(keys))
	}
	state := c.roKeys[:len(keys)] // aligned with rr.grouped
	c.in.Drain()

	for attempt := 0; attempt < roAttempts; attempt++ {
		if err := c.backoff(ctx, attempt); err != nil {
			return nil, minW, err
		}
		// Every attempt has its own Seq and starts its partitions from
		// scratch: a stale reply from an earlier attempt at the same snapshot
		// must not poison the settlement flags. Every open partition's
		// request goes out before any reply is collected, as in ReadMany.
		c.readSeq++
		seq := c.readSeq
		waiting := 0 // open partitions some replica of which has yet to answer
		for p := range rr.tally {
			if !rr.tally[p].open {
				continue
			}
			if attempt > 0 {
				c.obs.Inc(obs.ROReadRetry)
			}
			rr.tally[p] = readTally{open: true}
			pstate := state[rr.off[p]:rr.off[p+1]]
			for j := range pstate {
				pstate[j] = roKeyState{}
			}
			c.sendSnapshotRead(p, rr.keys(p), snap, seq)
			waiting++
		}
		for deadline := time.Now().Add(c.cfg.Timeout); waiting > 0; {
			m, _ := c.await(ctx, deadline)
			if m == nil {
				break
			}
			// The reply is consumed here: a confirmed reply's answers are
			// merged (by value) into the partition's key states, then the
			// struct is recycled.
			p := c.cfg.Topo.PartitionOf(m.Src.Node)
			mine := m.Type == message.TypeMultiReadReply && m.Seq == seq && p < len(rr.tally) &&
				rr.tally[p].open && rr.tally[p].replied < n
			wrongShard, watermark := mine && m.WrongShard, m.Watermark
			fresh := mine && !wrongShard && len(m.Reads) == len(rr.keys(p)) &&
				m.ReplicaID < 64 && rr.tally[p].seen&(1<<m.ReplicaID) == 0
			if fresh {
				rr.tally[p].seen |= 1 << m.ReplicaID
				if watermark == snap {
					for j := range m.Reads {
						state[rr.off[p]+j].merge(&m.Reads[j])
					}
				}
			}
			message.ReleaseMessage(m)
			if wrongShard {
				// The replica no longer owns some requested key and, by
				// design, refused before touching its store — a sealed copy
				// must never raise read timestamps for a snapshot it cannot
				// vouch for. Refresh and re-route.
				c.obs.Inc(obs.TxnWrongShard)
				c.noteRedirect()
				return nil, minW, ErrWrongShard
			}
			if !fresh {
				continue // a straggler, a wrong length or a duplicate replier
			}
			t := &rr.tally[p]
			t.replied++
			if watermark.Less(minW) {
				minW = watermark
			}
			if watermark == snap {
				t.confirmed++
			}
			pstate := state[rr.off[p]:rr.off[p+1]]
			switch {
			case t.confirmed >= quorum && allSettled(pstate):
				for j := range pstate {
					*rr.result(p, j) = pstate[j].res
				}
				rr.close(p)
				waiting--
			case t.replied == n:
				waiting-- // everyone answered; not settled, retry
			}
		}
		if rr.open == 0 {
			return rr.out, minW, nil
		}
	}
	return nil, minW, errROUnconfirmed
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
// transaction: it picks a fresh snapshot timestamp, and on an unconfirmed
// round makes one retry at the rounded-down watermark the replies
// advertised — provided it stays above lastTS, so one session's reads never
// travel backwards past its own commits. It returns the merged results and
// the snapshot timestamp that settled.
func (c *Coordinator) snapshotBegin(ctx context.Context, keys []string) ([]message.ReadResult, timestamp.Timestamp, error) {
	s := c.gen.NextTimestamp()
	res, minW, err := c.snapshotRound(ctx, keys, s)
	if err == nil {
		return res, s, nil
	}
	if errors.Is(err, errROUnconfirmed) && c.lastTS.Less(minW) && minW.Less(s) && !minW.IsZero() {
		c.obs.Inc(obs.RORoundDown)
		if res, _, err2 := c.snapshotRound(ctx, keys, minW); err2 == nil {
			return res, minW, nil
		}
	}
	return nil, timestamp.Timestamp{}, err
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
	if len(t.reads) > 0 || len(t.writes) > 0 || len(t.ops) > 0 || t.c.cfg.DisableReadOnlyFastPath {
		return // too late, or ablated: commit classically
	}
	t.roViable = true
}

// snapshotFetch serves keys for a read-only-marked transaction via the
// snapshot path. The first call fixes the transaction's snapshot timestamp;
// later calls must confirm at exactly that timestamp (reads at two
// different snapshots would not be one consistent cut). On failure the
// transaction demotes: roViable is cleared and the caller re-reads through
// the classic path. The bool reports whether the snapshot path served the
// keys; a non-nil error is a hard context/timeout failure.
func (t *Txn) snapshotFetch(keys []string) ([]message.ReadResult, bool, error) {
	c, ctx := t.c, t.ctx
	var (
		res []message.ReadResult
		err error
	)
	if t.snapTS.IsZero() {
		var s timestamp.Timestamp
		res, s, err = c.snapshotBegin(ctx, keys)
		if err == nil {
			t.snapTS = s
			return res, true, nil
		}
	} else {
		res, _, err = c.snapshotRound(ctx, keys, t.snapTS)
		if err == nil {
			return res, true, nil
		}
	}
	if !errors.Is(err, errROUnconfirmed) {
		return nil, false, err
	}
	c.obs.Inc(obs.ROFallback)
	t.roViable = false
	return nil, false, nil
}

// SnapshotRead performs a one-round strongly-consistent read of key: the
// value is serializable with respect to every committed transaction, like a
// validated read-only transaction, but costs a single snapshot round on the
// fast path. On an unconfirmed snapshot it demotes to the classic validated
// read. ok is false for a key that has never been written.
func (c *Coordinator) SnapshotRead(ctx context.Context, key string) ([]byte, timestamp.Timestamp, bool, error) {
	if !c.cfg.DisableReadOnlyFastPath {
		c.ro1[0] = key
		res, s, err := c.snapshotBegin(ctx, c.ro1[:])
		if err == nil {
			if c.lastTS.Less(s) {
				c.lastTS = s
			}
			c.obs.Inc(obs.TxnCommitRO)
			return res[0].Value, res[0].WTS, res[0].OK, nil
		}
		if errors.Is(err, errROUnconfirmed) {
			c.obs.Inc(obs.ROFallback)
		} else if !errors.Is(err, ErrWrongShard) {
			return nil, timestamp.Timestamp{}, false, err
		}
		// A wrong-shard redirect falls through too: the classic path's Run
		// loop re-routes with the refreshed map and retries.
	}
	// Classic path: a validated read-only transaction (read round plus
	// validation round), retried until it commits.
	var (
		val []byte
		ver timestamp.Timestamp
	)
	err := c.Run(ctx, func(t *Txn) error {
		v, rerr := t.Read(key)
		if rerr != nil {
			return rerr
		}
		val, ver = v, t.reads[0].WTS
		return nil
	})
	if err != nil {
		return nil, timestamp.Timestamp{}, false, err
	}
	return val, ver, !ver.IsZero(), nil
}
