package coordinator

import (
	"context"
	"errors"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
	"meerkat/internal/transport"
)

// The commit protocol of §5.2.2, extended to distributed transactions per
// §5.2.4: validation runs in every partition the transaction touched, and it
// commits only if every one validates it. Under the zero-coordination
// principle that should cost the sum of the per-partition validations and
// nothing else, so the client adds no coordination of its own: the caller's
// goroutine broadcasts every partition's validate, then folds the replies of
// all groups, in arrival order out of the one mailbox, into one quorum tally
// per partition. A single-partition commit is the N = 1 case of the same loop.
//
// The logic is a step machine (round) that neither blocks, sends nor reads a
// clock: reply folds one message in, tick folds the time in, and what they
// want done — a broadcast, a recovery — they flag on the partition.
// Coordinator.runRound is the thin driver that performs it and parks.

// phase is where one partition stands in the round.
type phase uint8

const (
	phValidate phase = iota // collecting validate-replies
	phAccept                // slow path: collecting accept-replies for proposal
	phRecover               // waiting for the driver to run coordinator recovery
	phDone                  // decided: commit, slow and err are final
)

// waitKind says what a partition's wake instant means.
type waitKind uint8

const (
	waitReplies waitKind = iota // a broadcast is out; wake is its deadline
	waitGrace                   // a majority replied without deciding; wake ends the stragglers' window
	waitResend                  // the deadline passed below a majority; wake ends the backoff
)

// tally counts the replies to one attempt of a partition's request; a resend
// starts it over, and a straggler of the previous attempt then counts towards
// the new one. Repliers are a bitmask, not a map: quorums are 3 or 5.
type tally struct {
	seen             uint64 // bit i set <=> replica i counted
	replied          int    // validate-replies, or accept acks
	ok, abort, wrong int    // validate-replies by verdict
	superseded       uint64 // accept: highest view a replica refused us for
}

// partState is one touched partition's slice of the transaction and where
// its part of the round stands.
type partState struct {
	p   int
	txn message.Txn

	phase phase
	send  bool // the driver is to broadcast the phase's request
	wait  waitKind
	wake  time.Time
	tally
	attempt      int            // resends of the current phase's request so far
	proposal     message.Status // accept: ACCEPT-COMMIT or ACCEPT-ABORT
	commit, slow bool
	err          error
}

// round is the state of one commit: the touched partitions in ascending
// order, their tallies, and what the driver has to do next. It lives in the
// coordinator and is reused commit after commit.
type round struct {
	cfg    *Config
	rng    transport.SplitMix64 // backoff jitter
	tid    timestamp.TxnID
	ts     timestamp.Timestamp
	coreID uint32

	parts []partState
	index []int // partition id -> 1 + position in parts; 0 = untouched

	open       int // partitions not yet phDone
	recovering int // partitions in phRecover
	// wake is when tick next has to run: the earliest wake of any waiting
	// partition as of the last tick, or zero — at once, as soon as the
	// mailbox is empty — when a reply has since completed a tally.
	wake       time.Time
	redirected bool // a partition closed on wrong-shard replies: the driver refreshes the map
}

func (r *round) init(cfg *Config) {
	*r = round{cfg: cfg, rng: transport.SeedSplitMix64(uint64(cfg.Seed) + 1), index: make([]int, cfg.Topo.Partitions)}
}

// begin starts the round over the partitions split left in parts: every one
// is to be sent its validate.
func (r *round) begin(tid timestamp.TxnID, ts timestamp.Timestamp, coreID uint32, now time.Time) {
	r.tid, r.ts, r.coreID = tid, ts, coreID
	r.open, r.recovering, r.redirected = len(r.parts), 0, false
	for i := range r.parts {
		r.request(&r.parts[i], now)
	}
	r.wake = now.Add(r.cfg.Timeout)
}

// request asks the driver to broadcast p's current request and starts the
// attempt's tally and deadline.
func (r *round) request(p *partState, now time.Time) {
	p.tally = tally{}
	p.send, p.wait, p.wake = true, waitReplies, now.Add(r.cfg.Timeout)
}

// decide closes p with its final verdict.
func (r *round) decide(p *partState, commit bool, err error) {
	if p.phase == phRecover {
		r.recovering--
	}
	p.phase, p.commit, p.err = phDone, commit, err
	r.open--
}

// reply folds one message into the tally of the partition whose group sent
// it. Matching is on (type, TID, partition of Src): a straggler of an earlier
// transaction, an untouched partition or a phase the partition has left
// falls through, and a late reply of group A never counts towards group B's
// quorum although both number their replicas from zero.
func (r *round) reply(m *message.Message) {
	q := r.cfg.Topo.PartitionOf(m.Src.Node)
	if m.TID != r.tid || q >= len(r.index) || r.index[q] == 0 {
		return
	}
	p := &r.parts[r.index[q]-1]
	switch {
	case m.Type == message.TypeValidateReply && p.phase == phValidate:
		r.validateReply(p, m)
	case m.Type == message.TypeAcceptReply && p.phase == phAccept:
		r.acceptReply(p, m)
	}
}

// validateReply is step 3: count the reply and watch for the fast-path
// supermajority of matching verdicts.
func (r *round) validateReply(p *partState, m *message.Message) {
	if m.ReplicaID >= 64 || p.seen&(1<<m.ReplicaID) != 0 {
		return
	}
	p.seen |= 1 << m.ReplicaID
	p.replied++
	if m.WrongShard {
		// The replica refused: under its current map it no longer owns part
		// of this piece — a shard split sealed the range between the
		// client's routing decision and this validate. Keep collecting; how
		// many replicas validated OK before the seal decides (closeValidate)
		// whether a plain abort is safe.
		p.wrong++
	} else {
		switch m.Status {
		case message.StatusValidatedOK:
			p.ok++
		case message.StatusValidatedAbort:
			p.abort++
		case message.StatusCommitted, message.StatusAborted:
			r.decide(p, m.Status == message.StatusCommitted, nil) // another coordinator already finished it
			return
		}
		if fast := r.cfg.Topo.FastQuorum(); !r.cfg.DisableFastPath && (p.ok >= fast || p.abort >= fast) {
			r.decide(p, p.ok >= fast, nil)
			return
		}
	}
	if t := r.cfg.Topo; p.replied == t.Replicas || (p.replied >= t.Majority() && p.wait != waitGrace) {
		r.wake = time.Time{} // tick closes the collect, or opens the grace window
	}
}

// acceptReply is step 5 as seen by the proposer. The original coordinator
// always proposes in view 0.
func (r *round) acceptReply(p *partState, m *message.Message) {
	if !m.OK {
		if m.View > p.superseded {
			p.superseded = m.View
		}
		return
	}
	if m.View != 0 || m.ReplicaID >= 64 || p.seen&(1<<m.ReplicaID) != 0 {
		return
	}
	p.seen |= 1 << m.ReplicaID
	p.replied++
	if p.replied >= r.cfg.Topo.Majority() {
		r.decide(p, p.proposal == message.StatusAcceptCommit, nil)
	}
}

// tick folds the time into every waiting partition — deadlines, grace
// windows and backoffs that have run out, tallies that are complete — and
// leaves in r.wake the instant it next has to run. The driver calls it when
// r.wake has come and the mailbox is empty, before it parks.
func (r *round) tick(now time.Time) {
	r.wake = time.Time{}
	t := r.cfg.Topo
	for i := range r.parts {
		p := &r.parts[i]
		if p.phase != phValidate && p.phase != phAccept {
			continue
		}
		expired := !now.Before(p.wake)
		switch {
		case p.wait == waitResend && expired:
			r.request(p, now)
		case p.phase == phAccept && expired && p.wait == waitReplies:
			// The attempt's deadline. If the proposal was superseded by a
			// higher view (a backup coordinator took over), join the
			// recovery protocol above it to learn the decided outcome.
			if p.superseded > 0 {
				r.recover(p)
			} else {
				r.retry(p, now)
			}
		case p.phase == phAccept: // the rest is about validate tallies
		case p.replied == t.Replicas || expired && p.wait != waitResend:
			r.closeValidate(p, now)
		case p.replied >= t.Majority() && p.wait != waitGrace:
			// Once a majority is in, the stragglers get only a short window
			// before the slow path: a crashed replica must not cost a full
			// timeout per transaction.
			p.wait, p.wake = waitGrace, now.Add(max(r.cfg.Timeout/10, time.Millisecond))
		}
		if (p.phase == phValidate || p.phase == phAccept) && (r.wake.IsZero() || p.wake.Before(r.wake)) {
			r.wake = p.wake
		}
	}
}

// closeValidate ends p's collect of validate-replies without a fast-path
// decision (step 4): every replica answered, or the deadline or the grace
// window ran out.
func (r *round) closeValidate(p *partState, now time.Time) {
	t := r.cfg.Topo
	switch {
	case p.wrong > 0:
		// Wrong-shard redirects: the client routed this piece with a stale
		// map. Aborting outright is only safe if no merge or recovery rule
		// could later decide commit — the epoch merge re-validates anything
		// with ceil(f/2)+1 VALIDATED-OK records (rule 4), and replicas that
		// never replied must be assumed to have validated OK before the
		// seal. Below that worst-case threshold the redirect is a provably
		// safe abort; at or above it, learn the authoritative outcome
		// through coordinator recovery instead of guessing.
		r.cfg.Obs.Inc(obs.TxnWrongShard)
		r.redirected = true
		if p.ok+(t.Replicas-p.replied) >= (t.F()+1)/2+1 {
			r.recover(p)
		} else {
			r.decide(p, false, ErrWrongShard)
		}
	case p.replied >= t.Majority():
		// With a majority of replies, take the slow path: an accept round
		// that gets a majority to durably record the proposed outcome.
		p.proposal = message.StatusAcceptAbort
		if p.ok >= t.Majority() {
			p.proposal = message.StatusAcceptCommit
		}
		p.phase, p.slow, p.attempt = phAccept, true, 0
		r.request(p, now)
	default:
		r.retry(p, now)
	}
}

// recover hands p to the driver for coordinator recovery above p.superseded.
func (r *round) recover(p *partState) {
	p.phase, p.slow = phRecover, true
	r.recovering++
}

// retry schedules a resend of p's request after the capped, jittered
// backoff, or gives up once the retry budget is spent. Only partitions still
// below a majority ever get here.
func (r *round) retry(p *partState, now time.Time) {
	if p.attempt == r.cfg.Retries {
		r.decide(p, false, ErrTimeout)
		return
	}
	r.cfg.Obs.Inc(obs.TxnRetry)
	p.tally = tally{}
	p.wait, p.wake = waitResend, now.Add(backoffDelay(r.cfg.BackoffBase, r.cfg.BackoffMax, p.attempt, &r.rng))
	p.attempt++
}

// runRound drives the round begin started until every partition is decided:
// it performs what the step functions asked for and otherwise waits for the
// next reply, the round's next wake instant or the end of ctx.
func (c *Coordinator) runRound(ctx context.Context) {
	r := &c.round
	err := expired(ctx)
	for err == nil && r.open > 0 {
		if c.perform(); r.open == 0 {
			return
		}
		m, now := c.await(ctx, r.wake)
		if m != nil {
			// The reply is consumed here: what the tally keeps is scalars.
			r.reply(m)
			message.ReleaseMessage(m)
		} else if err = expired(ctx); err == nil {
			r.tick(now)
			if r.redirected {
				r.redirected = false
				c.noteRedirect()
			}
		}
	}
	for i := range r.parts {
		if p := &r.parts[i]; p.phase != phDone {
			r.decide(p, false, err) // the caller gave up: the outcome is unknown
		}
	}
}

// perform does what the step functions flagged. It broadcasts the request of
// every partition that asked for one — its validate, or on the slow path its
// accept — one after another: on a transport that never blocks the sender
// that costs nothing over doing it side by side, and the groups work in
// parallel all the same. And it settles the partitions in phRecover through
// coordinator recovery, which blocks on the same mailbox and drops what is
// not its own — so only once no other partition is collecting.
func (c *Coordinator) perform() {
	r := &c.round
	for i := range r.parts {
		p := &r.parts[i]
		switch {
		case p.send:
			p.send = false
			req := message.Message{Type: message.TypeValidate, Txn: p.txn, TID: r.tid, TS: r.ts, CoreID: r.coreID}
			if p.phase == phAccept {
				req.Type, req.Status = message.TypeAccept, p.proposal
			} else {
				req.MapVersion = c.mapVersion()
			}
			var closed bool
			if c.outs, closed = broadcast(c.eps[1+p.p], c.group(p.p, r.coreID), &req, c.outs); closed {
				r.decide(p, false, transport.ErrClosed)
			}
		case p.phase == phRecover && r.recovering == r.open:
			commit, err := c.RecoverTxn(p.p, r.tid, r.coreID, p.superseded)
			if err == nil && !commit && p.wrong > 0 {
				// Known abort via recovery: surface the redirect so the caller
				// re-routes instead of conflict-backing-off.
				err = ErrWrongShard
			}
			r.decide(p, commit, err)
		}
	}
}

// carve appends the entries of set that partition p owns (kp[i] is entry i's
// partition) to arena and returns them as a capacity-capped span of it.
func carve[E any](arena *[]E, set []E, kp []int, p int) []E {
	start := len(*arena)
	for i := range set {
		if kp[i] == p {
			*arena = append(*arena, set[i])
		}
	}
	if start == len(*arena) {
		return nil
	}
	return (*arena)[start:len(*arena):len(*arena)]
}

// split carves the transaction into per-partition pieces, left in the round
// in ascending partition order so the send order is deterministic (and tests
// can assert on it). The partState headers are scratch; the sets are not —
// validated replicas alias them into their trecords: a transaction touching
// one partition ships its own read, write and op sets as they are, one
// touching several gets one exact-size backing array per set kind, each
// partition's piece a capacity-capped span of it.
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
	if len(r.parts) == 1 {
		r.parts[0].txn = message.Txn{ID: tid, ReadSet: t.reads, WriteSet: t.writes, OpSet: t.ops}
		return r.parts
	}
	reads := make([]message.ReadSetEntry, 0, nr)
	writes := make([]message.WriteSetEntry, 0, nw)
	ops := make([]message.OpSetEntry, 0, len(t.ops))
	for i := range r.parts {
		p := &r.parts[i]
		p.txn.ReadSet = carve(&reads, t.reads, kp, p.p)
		p.txn.WriteSet = carve(&writes, t.writes, kp[nr:], p.p)
		p.txn.OpSet = carve(&ops, t.ops, kp[nr+nw:], p.p)
	}
	return r.parts
}

// commit runs steps 1–6 of §5.2.2 for t.
func (c *Coordinator) commit(ctx context.Context, t *Txn) (bool, error) {
	if t.opErr != nil {
		return false, t.opErr
	}
	start := time.Now()
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
		c.obs.Observe(obs.HistCommit, time.Since(start))
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
	c.in.Drain()
	c.round.begin(tid, ts, coreID, start)
	c.runRound(ctx)
	c.obs.Observe(obs.HistValidateRound, time.Since(start))

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

	// Step 3/6: asynchronously broadcast the final outcome. The paper
	// piggybacks this on the client's next message; sending immediately on
	// a non-blocking transport is equivalent.
	st := message.StatusCommitted
	if !committed {
		st = message.StatusAborted
	}
	outcome := message.Message{Type: message.TypeCommit, TID: tid, Status: st, CoreID: coreID}
	for i := range parts {
		// One batch per partition endpoint: the whole replica group's
		// commit notifications leave in one syscall on the real wire.
		c.outs, _ = broadcast(c.eps[1+parts[i].p], c.group(parts[i].p, coreID), &outcome, c.outs)
	}

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
		c.obs.Observe(obs.HistCommit, time.Since(start))
	} else {
		c.obs.Observe(obs.HistAbort, time.Since(start))
	}
	return committed, err
}
