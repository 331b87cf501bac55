package coordinator

import (
	"context"
	"time"

	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// Coordinator recovery is Bernstein's cooperative termination protocol
// instantiated with per-transaction consensus: a prepare-like coordinator
// change, the outcome decision, and a Paxos-like accept — the slow path's, in
// the view the coordinator change established. They are phases of the commit
// round (round.go): a commit enters them for a partition whose proposal was
// superseded or whose wrong-shard redirects cannot rule out a commit;
// Txn.Resolve and a replica's backup coordinator (Recoverer) begin in them.

// Views uniquely identify proposals for one transaction (§5.3.2). A view
// packs a round number with a proposer id so that two proposers can never
// issue the same view: view = round<<20 | proposer. The original transaction
// coordinator always proposes in view 0.
const viewProposerBits = 20

// MakeView builds the view number for a proposer's round.
func MakeView(round, proposer uint64) uint64 {
	return round<<viewProposerBits | (proposer & (1<<viewProposerBits - 1))
}

// RoundOf extracts the round number of a view.
func RoundOf(view uint64) uint64 { return view >> viewProposerBits }

// DecideOutcome applies the backup coordinator's priority rules (§5.3.2) to
// the transaction records gathered from a majority of replicas. It returns
// the outcome to pursue and whether that outcome is already final (committed
// or aborted at some replica, so only a commit broadcast is needed).
//
// In order of priority, the safe outcome is one that has
//
//  1. been completed (COMMITTED or ABORTED) at any replica;
//  2. been proposed by a prior coordinator and accepted by at least one
//     replica — the proposal with the latest accept view wins;
//  3. been VALIDATED-OK or VALIDATED-ABORT by a majority of replicas;
//  4. possibly committed on the fast path: at least ceil(f/2)+1 replicas
//     report VALIDATED-OK. (A conflicting transaction cannot also have
//     gathered a fast quorum — the two supermajorities would overlap in a
//     replica that validated both, which the OCC checks forbid — so
//     proposing commit is safe.)
//
// Otherwise the transaction cannot have committed anywhere and abort is safe.
func DecideOutcome(records []message.TRecordEntry, f int) (proposal message.Status, final bool) {
	// Rule 1: a finalized record anywhere fixes the outcome.
	for i := range records {
		switch records[i].Status {
		case message.StatusCommitted:
			return message.StatusCommitted, true
		case message.StatusAborted:
			return message.StatusAborted, true
		}
	}

	// Rule 2: the accepted proposal with the latest view.
	bestView := uint64(0)
	var bestStatus message.Status
	for i := range records {
		r := &records[i]
		if (r.Status == message.StatusAcceptCommit || r.Status == message.StatusAcceptAbort) &&
			r.AcceptView >= bestView {
			bestView = r.AcceptView
			bestStatus = r.Status
		}
	}
	if bestStatus != message.StatusNone {
		return bestStatus, false
	}

	// Rules 3 and 4: counts of validated statuses.
	countOK, countAbort := 0, 0
	for i := range records {
		switch records[i].Status {
		case message.StatusValidatedOK:
			countOK++
		case message.StatusValidatedAbort:
			countAbort++
		}
	}
	switch {
	case countOK >= f+1:
		return message.StatusAcceptCommit, false
	case countAbort >= f+1:
		return message.StatusAcceptAbort, false
	case countOK >= (f+1)/2+1:
		return message.StatusAcceptCommit, false
	default:
		return message.StatusAcceptAbort, false
	}
}

// recover starts coordinator recovery of p in a view above every one it has
// seen: at once when p comes from the commit's own phases, after the policy's
// backoff and against its budget when an earlier view of the recovery failed —
// two proposers outbidding each other must not duel in lockstep.
func (r *round) recover(p *partState, now time.Time) {
	first := p.view == 0
	p.view = MakeView(RoundOf(max(p.view, p.superseded))+1, r.proposer)
	p.phase, p.slow = phCoordChange, true
	if first {
		p.Attempt = 0
		r.request(p, now)
	} else {
		r.retry(p, now)
	}
}

// coordChangeAck is phase 1 as seen by the proposer: a replica that acks
// promises to ignore lower-viewed proposals and reports its record of the
// transaction; one that refuses names the higher view it has promised.
func (r *round) coordChangeAck(p *partState, m *message.Message) {
	if !m.OK {
		p.superseded = max(p.superseded, m.View)
		return
	}
	if m.View != p.view || !p.count(m.ReplicaID) {
		return
	}
	if len(m.Records) > 0 {
		m.Disown() // the record's body outlives the ack: it may be proposed in the accept
		p.records = append(p.records, m.Records[0])
	}
	if p.replied >= r.cfg.Topo.Majority() {
		r.wake = time.Time{} // tick decides
	}
}

// closeCoordChange decides the safe outcome from a majority's records. A final
// one only needs telling; any other is proposed in p.view, with the body of
// any record that has it, so replicas that missed the validate can apply it.
func (r *round) closeCoordChange(p *partState, now time.Time) {
	proposal, final := DecideOutcome(p.records, r.cfg.Topo.F())
	if final {
		r.decide(p, proposal == message.StatusCommitted, nil)
		p.Send = true
		return
	}
	for i := range p.records {
		if rec := &p.records[i]; !rec.Txn.Empty() {
			p.txn, p.ts = rec.Txn, rec.TS
			break
		}
	}
	p.phase, p.proposal = phAccept, proposal
	r.request(p, now)
}

// beginRecovery starts a round that drives tid, which ran on core coreID of
// every partition in parts, to a consistent outcome in all of them, side by
// side, in views above seenView.
func (r *round) beginRecovery(parts []int, tid timestamp.TxnID, coreID uint32, seenView uint64, now time.Time) {
	r.tid, r.coreID, r.open, r.redirected = tid, coreID, len(parts), false
	r.parts = r.parts[:0]
	clear(r.index)
	for i, p := range parts {
		r.parts = append(r.parts, partState{p: p, tally: tally{superseded: seenView}})
		r.index[p] = i + 1
		r.recover(&r.parts[i], now)
	}
	r.wake = now.Add(r.cfg.Timeout)
}

// resolve runs a recovery round to its end, or ctx's, and returns the
// conjunction of the partitions' outcomes.
func (l *link) resolve(ctx context.Context, r *round, parts []int, tid timestamp.TxnID, coreID uint32, seenView uint64) (bool, error) {
	l.In.Drain()
	r.beginRecovery(parts, tid, coreID, seenView, l.Now())
	r.abandon(l.Run(ctx, r))
	committed := true
	for i := range r.parts {
		if p := &r.parts[i]; p.err != nil {
			return false, p.err
		} else if !p.commit {
			committed = false
		}
	}
	return committed, nil
}

// Recoverer runs coordinator recovery on behalf of a replica acting as a
// backup coordinator. Each replica core that initiates recoveries shares one
// Recoverer; calls are serialized by the caller.
type Recoverer struct {
	cfg Config
	link
	round round
}

// NewRecoverer binds a recovery endpoint at addr, to run recoveries under pol,
// the deployment's retry policy (zero fields take the coordinator defaults).
// proposer must be unique among backup coordinators (the replica index serves).
func NewRecoverer(net transport.Network, t topo.Topology, addr message.Addr, proposer uint64, pol drive.Policy) (*Recoverer, error) {
	r := &Recoverer{cfg: Config{
		Topo: t, ClientID: proposer,
		Timeout: pol.Timeout, Retries: pol.Retries, BackoffBase: pol.BackoffBase, BackoffMax: pol.BackoffMax,
	}}
	r.cfg.fill()
	r.link = link{Link: drive.Link{Mailbox: drive.Mailbox{In: transport.NewInbox(256), Clock: net.Clock()}}, groups: groupTable(t), cores: t.Cores}
	var err error
	if r.Ep, err = net.Listen(addr, r.In.Handle); err != nil {
		return nil, err
	}
	r.round.init(&r.cfg, &r.link, proposer)
	return r, nil
}

// Close releases the recovery endpoint.
func (r *Recoverer) Close() { r.Ep.Close() }

// Recover completes tid in partition p with a consistent outcome, returning
// whether it committed. The end of ctx ends it with the outcome unknown.
func (r *Recoverer) Recover(ctx context.Context, p int, tid timestamp.TxnID, coreID uint32, seenView uint64) (bool, error) {
	return r.resolve(ctx, &r.round, []int{p}, tid, coreID, seenView)
}
