package coordinator

import (
	"time"

	"meerkat/internal/drive"
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
// want done — a broadcast — they flag on the partition for perform. Coordinator
// recovery (§5.3.2, recovery.go) is two more phases of the same machine: a
// coordinator change, then the slow path's accept in the view it established.

// phase is where one partition stands in the round.
type phase uint8

const (
	phValidate    phase = iota // collecting validate-replies
	phAccept                   // slow path: collecting accept-replies for proposal in view
	phCoordChange              // recovery: collecting a majority's promises and records for view
	phDone                     // decided: commit, slow and err are final
)

// tally counts the replies to one attempt of a partition's request; a resend
// starts it over, and a straggler of the previous attempt then counts towards
// the new one. Repliers are a bitmask, not a map: quorums are 3 or 5.
type tally struct {
	seen             uint64 // bit i set <=> replica i counted
	replied          int    // validate-replies, accept or coordinator-change acks, snapshot replies
	ok, abort, wrong int    // validate-replies by verdict; ok also counts confirmed snapshot replies
	superseded       uint64 // accept, coordinator change: highest view a replica refused us for
}

// count admits one reply per replica and attempt.
func (t *tally) count(replica uint32) bool {
	if replica >= 64 || t.seen&(1<<replica) != 0 {
		return false
	}
	t.seen |= 1 << replica
	t.replied++
	return true
}

// partState is one touched partition's slice of the transaction and where
// its part of the round stands.
type partState struct {
	p   int
	txn message.Txn
	ts  timestamp.Timestamp // the timestamp txn is proposed at

	phase phase
	drive.Wait
	tally
	view         uint64                 // accept, coordinator change: 0 is the original coordinator's
	proposal     message.Status         // accept: ACCEPT-COMMIT or ACCEPT-ABORT
	records      []message.TRecordEntry // coordinator change: what the acks reported
	commit, slow bool
	moved        bool // a replica's map no longer has this piece: an abort reports ErrWrongShard
	err          error
}

// round is the state of one commit or recovery: the touched partitions in
// ascending order, their tallies, and what the driver has to do next. It lives
// in the coordinator and is reused commit after commit.
type round struct {
	drive.Policy
	cfg      *Config
	l        *link  // what perform sends on and routes by
	proposer uint64 // this coordinator's id inside the views it recovers in
	tid      timestamp.TxnID
	coreID   uint32

	parts []partState
	index []int // partition id -> 1 + position in parts; 0 = untouched

	open int // partitions not yet phDone
	// wake is when tick next has to run: the earliest wake of any waiting
	// partition as of the last tick, or zero — at once, as soon as the
	// mailbox is empty — when a reply has since completed a tally.
	wake       time.Time
	redirected bool // a partition closed on wrong-shard replies: the driver refreshes the map
}

func (r *round) init(cfg *Config, l *link, proposer uint64) {
	*r = round{
		Policy: cfg.policy(1), cfg: cfg, l: l,
		proposer: proposer, index: make([]int, cfg.Topo.Partitions),
	}
}

// begin starts the round over the partitions split left in parts: every one
// is to be sent its validate.
func (r *round) begin(tid timestamp.TxnID, ts timestamp.Timestamp, coreID uint32, now time.Time) {
	r.tid, r.coreID = tid, coreID
	r.open, r.redirected = len(r.parts), false
	for i := range r.parts {
		r.parts[i].ts = ts
		r.request(&r.parts[i], now)
	}
	r.wake = now.Add(r.cfg.Timeout)
}

func (r *round) Pending() (int, time.Time) { return r.open, r.wake }

// request asks the driver to broadcast p's current request and starts the
// attempt's tally and deadline.
func (r *round) request(p *partState, now time.Time) {
	p.tally, p.records = tally{}, p.records[:0]
	r.Policy.Request(&p.Wait, now)
}

// decide closes p with its final verdict.
func (r *round) decide(p *partState, commit bool, err error) {
	if p.moved && !commit && err == nil {
		// A known abort, through recovery or outright: surface the redirect
		// so the caller re-routes instead of conflict-backing-off.
		err = ErrWrongShard
	}
	p.phase, p.commit, p.err = phDone, commit, err
	r.open--
}

// abandon closes what run left open when the caller gave up: the outcome is
// unknown.
func (r *round) abandon(err error) {
	for i := range r.parts {
		if p := &r.parts[i]; p.phase != phDone {
			r.decide(p, false, err)
		}
	}
}

// reply folds one message into the tally of the partition whose group sent
// it. Matching is on (type, TID, partition of Src): a straggler of an earlier
// transaction, an untouched partition or a phase the partition has left
// falls through, and a late reply of group A never counts towards group B's
// quorum although both number their replicas from zero.
func (r *round) Reply(m *message.Message) {
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
	case m.Type == message.TypeCoordChangeAck && p.phase == phCoordChange:
		r.coordChangeAck(p, m)
	}
}

// validateReply is step 3: count the reply and watch for the fast-path
// supermajority of matching verdicts.
func (r *round) validateReply(p *partState, m *message.Message) {
	if !p.count(m.ReplicaID) {
		return
	}
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
	if t := r.cfg.Topo; p.replied == t.Replicas || (p.replied >= t.Majority() && p.Kind != drive.WaitGrace) {
		r.wake = time.Time{} // tick closes the collect, or opens the grace window
	}
}

// acceptReply is step 5 as seen by the proposer, in whichever view it
// proposed: the original coordinator's 0, or the one a coordinator change
// established. A refusal names the higher view the replica has promised.
func (r *round) acceptReply(p *partState, m *message.Message) {
	if m.Status.Final() {
		// The record was finalized under the proposal: by another coordinator,
		// or by an epoch change's merge, whose verdict need not be this one.
		r.decide(p, m.Status == message.StatusCommitted, nil)
		p.Send = p.view != 0
		return
	}
	if !m.OK {
		p.superseded = max(p.superseded, m.View)
		return
	}
	if m.View != p.view || !p.count(m.ReplicaID) {
		return
	}
	if p.replied >= r.cfg.Topo.Majority() {
		r.decide(p, p.proposal == message.StatusAcceptCommit, nil)
		p.Send = p.view != 0 // a recovery tells the group; a commit joins the partitions' verdicts first
	}
}

// tick folds the time into every waiting partition — deadlines, grace
// windows and backoffs that have run out, tallies that are complete — and
// leaves in r.wake the instant it next has to run. The driver calls it when
// r.wake has come and the mailbox is empty, before it parks.
func (r *round) Tick(now time.Time) {
	r.wake = time.Time{}
	t := r.cfg.Topo
	for i := range r.parts {
		p := &r.parts[i]
		if p.phase == phDone {
			continue
		}
		expired := !now.Before(p.Wake)
		switch {
		case p.Kind == drive.WaitResend && expired:
			r.request(p, now)
		case p.phase == phCoordChange && p.replied >= t.Majority():
			r.closeCoordChange(p, now)
		case p.phase != phValidate:
			// The attempt's deadline. An accept superseded by a higher view (a
			// backup coordinator took over) joins the recovery protocol above
			// it to learn the decided outcome, and a recovery that was refused
			// or starved of a majority starts over in a higher view.
			if !expired || p.Kind != drive.WaitReplies {
				break
			}
			if p.view != 0 || p.superseded > 0 {
				r.recover(p, now)
			} else {
				r.retry(p, now)
			}
		case p.replied == t.Replicas || expired && p.Kind != drive.WaitResend:
			r.closeValidate(p, now)
		case p.replied >= t.Majority() && p.Kind != drive.WaitGrace:
			// Once a majority is in, the stragglers get only a short window
			// before the slow path: a crashed replica must not cost a full
			// timeout per transaction.
			r.Grace(&p.Wait, now)
		}
		if p.phase != phDone {
			r.wake = drive.Earlier(r.wake, p.Wake)
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
		r.redirected, p.moved = true, true
		if p.ok+(t.Replicas-p.replied) >= (t.F()+1)/2+1 {
			r.recover(p, now)
		} else {
			r.decide(p, false, nil)
		}
	case p.replied >= t.Majority():
		// With a majority of replies, take the slow path: an accept round
		// that gets a majority to durably record the proposed outcome.
		p.proposal = message.StatusAcceptAbort
		if p.ok >= t.Majority() {
			p.proposal = message.StatusAcceptCommit
		}
		p.phase, p.slow, p.Attempt = phAccept, true, 0
		r.request(p, now)
	default:
		r.retry(p, now)
	}
}

// retry schedules a resend of p's request after the capped, jittered
// backoff, or gives up once the retry budget is spent. Only partitions still
// below a majority ever get here.
func (r *round) retry(p *partState, now time.Time) {
	if !r.Policy.Retry(&p.Wait, now, 0) {
		r.decide(p, false, ErrTimeout)
		return
	}
	r.cfg.Obs.Inc(obs.TxnRetry)
	p.tally = tally{}
}

// perform does what the step functions flagged. It broadcasts the request of
// every partition that asked for one — its validate, on the slow path its
// accept, in recovery its coordinator change, and once recovery has decided
// the outcome — one after another: on a transport that never blocks the
// sender that costs nothing over doing it side by side, and the groups work
// in parallel all the same.
func (r *round) Perform() {
	l := r.l
	if r.redirected {
		r.redirected = false
		l.noteRedirect()
	}
	for i := range r.parts {
		p := &r.parts[i]
		if !p.Send {
			continue
		}
		p.Send = false
		req := message.Message{TID: r.tid, CoreID: r.coreID}
		switch p.phase {
		case phValidate:
			req.Type, req.Txn, req.TS, req.MapVersion = message.TypeValidate, p.txn, p.ts, l.mapVersion()
		case phAccept:
			req.Type, req.Txn, req.TS, req.Status, req.View = message.TypeAccept, p.txn, p.ts, p.proposal, p.view
		case phCoordChange:
			req.Type, req.View = message.TypeCoordChange, p.view
		case phDone:
			// Steps 3 and 6: asynchronously broadcast the final outcome. The
			// paper piggybacks this on the client's next message; sending
			// immediately on a non-blocking transport is equivalent.
			req.Type, req.Status = message.TypeCommit, message.StatusAborted
			if p.commit {
				req.Status = message.StatusCommitted
			}
		}
		if l.Broadcast(l.group(p.p, r.coreID), &req) && p.phase != phDone {
			r.decide(p, false, transport.ErrClosed)
		}
	}
}
