package coordinator

import (
	"context"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

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

// RecoverTxn runs the coordinator recovery protocol for tid in partition p,
// starting above view seenView. It is used by an original coordinator whose
// slow-path proposal was superseded; replicas use a Recoverer. It returns
// the transaction's final outcome. It blocks on the coordinator's mailbox and
// drops everything that is not its own, so no other round may be collecting.
func (c *Coordinator) RecoverTxn(p int, tid timestamp.TxnID, coreID uint32, seenView uint64) (bool, error) {
	// Client proposer ids live in the upper half of the proposer space so
	// they cannot collide with replica indices.
	proposer := (c.cfg.ClientID % (1 << (viewProposerBits - 1))) + (1 << (viewProposerBits - 1))
	return recoverTxn(recoverEnv{
		ep: c.eps[1+p], mb: &c.mailbox,
		topo: c.cfg.Topo, p: p,
		timeout: c.cfg.Timeout, retries: c.cfg.Retries,
	}, tid, coreID, proposer, seenView)
}

// Recoverer runs coordinator recovery on behalf of a replica acting as a
// backup coordinator. Each replica core that initiates recoveries shares one
// Recoverer; calls are serialized by the caller.
type Recoverer struct {
	env  recoverEnv // all but the partition, which each call names
	prop uint64
}

// NewRecoverer binds a recovery endpoint at addr. proposer must be unique
// among backup coordinators (the replica index serves).
func NewRecoverer(net transport.Network, t topo.Topology, addr message.Addr, proposer uint64, timeout time.Duration, retries int) (*Recoverer, error) {
	in := transport.NewInbox(256)
	ep, err := net.Listen(addr, in.Handle)
	if err != nil {
		return nil, err
	}
	if timeout == 0 {
		timeout = 100 * time.Millisecond
	}
	if retries == 0 {
		retries = 10
	}
	env := recoverEnv{ep: ep, mb: &mailbox{in: in}, topo: t, timeout: timeout, retries: retries}
	return &Recoverer{env: env, prop: proposer}, nil
}

// Close releases the recovery endpoint.
func (r *Recoverer) Close() { r.env.ep.Close() }

// Recover completes tid in partition p with a consistent outcome, returning
// whether it committed.
func (r *Recoverer) Recover(p int, tid timestamp.TxnID, coreID uint32, seenView uint64) (bool, error) {
	env := r.env
	env.p = p
	return recoverTxn(env, tid, coreID, r.prop, seenView)
}

// recoverEnv carries the plumbing shared by client- and replica-initiated
// recovery.
type recoverEnv struct {
	ep      transport.Endpoint
	mb      *mailbox
	topo    topo.Topology
	p       int
	timeout time.Duration
	retries int
}

// await returns the next message for this recovery — one from partition p's
// group, whatever else shares the mailbox — or nil once deadline has passed.
func (env *recoverEnv) await(deadline time.Time) *message.Message {
	for {
		m, _ := env.mb.await(context.Background(), deadline)
		if m == nil || env.topo.PartitionOf(m.Src.Node) == env.p {
			return m
		}
	}
}

// recoverTxn is Bernstein's cooperative termination protocol instantiated
// with per-transaction consensus: a prepare-like coordinator change, the
// outcome decision, and a Paxos-like accept round.
func recoverTxn(env recoverEnv, tid timestamp.TxnID, coreID uint32, proposer, seenView uint64) (bool, error) {
	group := env.topo.GroupAddrs(env.p, coreID)
	majority := env.topo.Majority()
	f := env.topo.F()
	round := RoundOf(seenView) + 1
	var outs []transport.Outgoing // broadcast scratch, reused across phases

	for attempt := 0; attempt <= env.retries; attempt++ {
		view := MakeView(round, proposer)
		env.mb.in.Drain()

		// Phase 1: coordinator change — a majority promises to ignore
		// lower-viewed proposals and reports its record for tid.
		req := message.Message{Type: message.TypeCoordChange, TID: tid, View: view, CoreID: coreID}
		outs, _ = broadcast(env.ep, group, &req, outs)
		records := make([]message.TRecordEntry, 0, len(group))
		acked := make(map[uint32]bool, len(group))
		higher := uint64(0)
		for deadline := time.Now().Add(env.timeout); len(acked) < majority; {
			m := env.await(deadline)
			if m == nil {
				break
			}
			if m.Type != message.TypeCoordChangeAck || m.TID != tid {
				continue
			}
			if !m.OK {
				if m.View > higher {
					higher = m.View
				}
				continue
			}
			if m.View != view || acked[m.ReplicaID] {
				continue
			}
			acked[m.ReplicaID] = true
			if len(m.Records) > 0 {
				records = append(records, m.Records[0])
			}
		}
		if len(acked) < majority {
			if higher >= view {
				round = RoundOf(higher) + 1
			} else {
				round++
			}
			continue
		}

		// Decide the safe outcome from the gathered records.
		proposal, final := DecideOutcome(records, f)
		if final {
			committed := proposal == message.StatusCommitted
			broadcastCommit(env.ep, group, tid, committed, coreID)
			return committed, nil
		}

		// Phase 2: accept. Recover the transaction body from any record
		// that has it, so replicas that missed the validate can still
		// apply the writes.
		var body message.Txn
		var ts timestamp.Timestamp
		for i := range records {
			if len(records[i].Txn.ReadSet) > 0 || len(records[i].Txn.WriteSet) > 0 {
				body = records[i].Txn
				ts = records[i].TS
				break
			}
		}
		accept := message.Message{
			Type: message.TypeAccept, TID: tid, Status: proposal, View: view,
			Txn: body, TS: ts, CoreID: coreID,
		}
		outs, _ = broadcast(env.ep, group, &accept, outs)
		acks := make(map[uint32]bool, len(group))
		higher = 0
		for deadline := time.Now().Add(env.timeout); ; {
			m := env.await(deadline)
			if m == nil {
				break
			}
			if m.Type != message.TypeAcceptReply || m.TID != tid {
				continue
			}
			if !m.OK {
				if m.View > higher {
					higher = m.View
				}
				continue
			}
			if m.View != view {
				continue
			}
			acks[m.ReplicaID] = true
			if len(acks) >= majority {
				committed := proposal == message.StatusAcceptCommit
				broadcastCommit(env.ep, group, tid, committed, coreID)
				return committed, nil
			}
		}
		if higher >= view {
			round = RoundOf(higher) + 1
		} else {
			round++
		}
	}
	return false, ErrTimeout
}

func broadcastCommit(ep transport.Endpoint, group []message.Addr, tid timestamp.TxnID, committed bool, coreID uint32) {
	st := message.StatusAborted
	if committed {
		st = message.StatusCommitted
	}
	req := message.Message{Type: message.TypeCommit, TID: tid, Status: st, CoreID: coreID}
	broadcast(ep, group, &req, nil)
}
