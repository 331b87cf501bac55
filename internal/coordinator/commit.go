package coordinator

import (
	"context"
	"errors"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
)

// split carves the transaction into per-partition pieces, left in the round
// in ascending partition order so the send order is deterministic (and tests
// can assert on it). The partState headers are scratch; the sets are not —
// validated replicas alias them into their trecords — so every piece, of one
// partition or of several, is a copy: a capacity-capped span of the
// coordinator's bump chunks, never the transaction's working sets, which the
// next transaction overwrites.
func (c *Coordinator) split(t *Txn, tid timestamp.TxnID) []partState {
	r := &c.round
	r.parts = r.parts[:0]
	nr, nw := len(t.reads), len(t.writes)
	if nr+nw+len(t.ops) == 0 {
		return nil // empty transaction: nothing to validate anywhere
	}
	for p := range r.index {
		r.index[p] = 0
	}
	kp := c.keyParts[:0] // partition of each read, then write, then op
	route := func(key string) {
		kp = append(kp, c.partitionFor(key))
		r.index[kp[len(kp)-1]] = 1
	}
	for i := range t.reads {
		route(t.reads[i].Key)
	}
	for i := range t.writes {
		route(t.writes[i].Key)
	}
	for i := range t.ops {
		route(t.ops[i].Key)
	}
	c.keyParts = kp
	for p := range r.index {
		if r.index[p] != 0 {
			r.parts = append(r.parts, partState{p: p, txn: message.Txn{ID: tid}})
			r.index[p] = len(r.parts)
		}
	}
	c.body.Room(nr, nw, len(t.ops))
	for i := range r.parts {
		p := &r.parts[i]
		p.txn.ReadSet, p.txn.WriteSet, p.txn.OpSet = c.body.Carve(t.reads, t.writes, t.ops, kp, p.p)
	}
	return r.parts
}

// commit runs steps 1–6 of §5.2.2 for t.
func (c *Coordinator) commit(ctx context.Context, t *Txn) (bool, error) {
	if t.opErr != nil {
		return false, t.opErr
	}
	start := c.Now()
	// Read-only fast path: a transaction whose every read was served and
	// confirmed at one snapshot timestamp, and that buffered no writes or
	// ops, is already serialized at that snapshot — each touched replica
	// vouched, under the per-key read-timestamp guard, that nothing can
	// commit at or below it on the keys read. Commit is local: zero
	// validation rounds, zero messages.
	if t.roViable && len(t.writes) == 0 && len(t.ops) == 0 && !t.snapTS.IsZero() {
		t.committedAt = t.snapTS
		t.id = c.gen.NextID()
		t.roCommitted = true
		if c.lastTS.Less(t.snapTS) {
			c.lastTS = t.snapTS
		}
		c.obs.Inc(obs.TxnCommitRO)
		c.obs.Observe(obs.HistCommit, c.Now().Sub(start))
		return true, nil
	}
	// Step 1: pick the processing core, the proposed timestamp, and the
	// transaction id. The timestamp comes from the client's loosely
	// synchronized clock — no coordination.
	coreID := uint32(c.rng.Intn(c.cfg.Topo.Cores))
	ts := c.gen.NextTimestamp()
	tid := c.gen.NextID()
	t.committedAt = ts
	t.id = tid
	t.coreID = coreID
	t.unresolved = t.unresolved[:0]

	parts := c.split(t, tid)
	if len(parts) == 0 {
		return true, nil // empty transaction commits trivially; no lifecycle
	}

	// Steps 2–5 in every touched partition at once.
	c.In.Drain()
	c.round.begin(tid, ts, coreID, start)
	c.round.abandon(c.link.Run(ctx, &c.round))
	c.obs.Observe(obs.HistValidateRound, c.Now().Sub(start))

	// The transaction commits fast only if every partition decided on the
	// fast path; one slow partition makes it a slow-path commit. An abort's
	// reason is taken from how the aborting partition decided: a fast-path
	// supermajority of VALIDATED-ABORT is a validation conflict, a slow-path
	// decision is an accept-abort.
	committed, anySlow, abortSlow, redirected := true, false, false, false
	for i := range parts {
		p := &parts[i]
		anySlow = anySlow || p.slow
		switch {
		case p.err == nil:
			if !p.commit {
				committed = false
				abortSlow = abortSlow || p.slow
			}
		case errors.Is(p.err, ErrWrongShard):
			// A known abort on a wrong-shard redirect (see closeValidate),
			// not an unknown outcome: record it and keep joining, so the
			// abort broadcast below still reaches every partition and
			// finalizes any straggler VALIDATED-OK records.
			committed = false
			redirected = true
		default:
			if errors.Is(p.err, ErrTimeout) {
				c.obs.Inc(obs.TxnAbortTimeout)
				// Outcome unknown: remember which (partition, core) groups
				// the protocol ran in, so Resolve can finish the job.
				for j := range parts {
					t.unresolved = append(t.unresolved, parts[j].p)
				}
			}
			return false, p.err
		}
	}

	// Tell every partition the joined outcome (perform's phDone).
	for i := range parts {
		parts[i].commit, parts[i].Send = committed, true
	}
	c.round.Perform()

	if committed && c.lastTS.Less(ts) {
		c.lastTS = ts // snapshot round-down floor (see snapshotBegin)
	}
	var err error
	switch {
	case redirected:
		// Surface the redirect: Run refreshes its routing and retries the
		// whole transaction against the new map instead of treating this as
		// a conflict. TxnWrongShard was counted where the redirect landed.
		err = ErrWrongShard
	case committed && !anySlow:
		c.obs.Inc(obs.TxnCommitFast)
	case committed:
		c.obs.Inc(obs.TxnCommitSlow)
	case abortSlow:
		c.obs.Inc(obs.TxnAbortAcceptAbort)
	default:
		c.obs.Inc(obs.TxnAbortValidation)
	}
	if committed {
		if len(parts) > 1 {
			c.obs.Inc(obs.TxnCommitMultiShard)
		}
		c.obs.Observe(obs.HistCommit, c.Now().Sub(start))
	} else {
		c.obs.Observe(obs.HistAbort, c.Now().Sub(start))
	}
	return committed, err
}
