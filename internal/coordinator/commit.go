package coordinator

import (
	"context"
	"errors"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
)

// chunkEntries is the capacity of one bump chunk of commit bodies. Replicas
// alias a shipped span into a transaction record, which pins the span's whole
// chunk, so a chunk should be small enough that one long-lived record wastes
// little and large enough that opening one is noise: 256 entries of 40 bytes
// (56 for an op) are 10–14 KB, and the suite's retwis, which ships 1.3 read
// and 1.9 write entries per transaction (its read-only half commits locally),
// opens one every 80 transactions — 0.013 objects where exact-size arrays
// cost two per commit.
const chunkEntries = 256

// body is the memory commits ship: one append-only chunk per set kind. A
// chunk is written only at its length, and only by carve; what is below the
// length belongs to whoever received a span of it.
type body struct {
	reads  []message.ReadSetEntry
	writes []message.WriteSetEntry
	ops    []message.OpSetEntry
}

// room opens a new chunk if *chunk cannot take n more entries, leaving the old
// one to its readers.
func room[E any](chunk *[]E, n int) {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]E, 0, max(chunkEntries, n))
	}
}

// carve appends the entries of set that partition p owns (kp[i] is entry i's
// partition) to chunk, which has room for them, and returns them as a
// capacity-capped span of it.
func carve[E any](chunk *[]E, set []E, kp []int, p int) []E {
	start := len(*chunk)
	for i := range set {
		if kp[i] == p {
			*chunk = append(*chunk, set[i])
		}
	}
	if start == len(*chunk) {
		return nil
	}
	return (*chunk)[start:len(*chunk):len(*chunk)]
}

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
	b := &c.body
	room(&b.reads, nr)
	room(&b.writes, nw)
	room(&b.ops, len(t.ops))
	for i := range r.parts {
		p := &r.parts[i]
		p.txn.ReadSet = carve(&b.reads, t.reads, kp, p.p)
		p.txn.WriteSet = carve(&b.writes, t.writes, kp[nr:], p.p)
		p.txn.OpSet = carve(&b.ops, t.ops, kp[nr+nw:], p.p)
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
