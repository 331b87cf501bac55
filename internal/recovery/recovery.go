// Package recovery implements Meerkat's epoch change protocol (§5.3.1),
// which brings all replicas of a partition group to a consistent trecord
// after replica failure and recovery, and doubles as the checkpointing
// mechanism that lets replicas trim their records.
//
// The protocol is inspired by Viewstamped Replication: a designated recovery
// coordinator (the (epoch mod n)th replica; the designation is enforced by
// the caller) polls all replicas, which pause validation and ship their
// trecords; the coordinator merges the whole-record replicas' with the rules
// of §5.3.1 and installs the merged, all-final trecord everywhere.
//
// Both things this package waits for — the epoch change and the state
// transfer a recovering replica runs before it — are step machines
// (EpochChange, stateTransfer) on the protocol's one driver and one retry
// policy (internal/drive): they neither block, send on their own nor read a
// clock, so a test can step them through any schedule. RunEpochChange and
// SyncStoreRemote bind an endpoint and hand them to drive.Link.Run.
package recovery

import (
	"context"
	"errors"
	"sort"
	"time"

	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/occ"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
)

// ErrNoQuorum means the epoch change could not reach a majority of replicas
// whose acknowledgements report their whole record, or the state transfer
// could not reach its donor.
var ErrNoQuorum = errors.New("recovery: no quorum of replicas reachable")

// Options carries what an epoch change or a state transfer is told beside the
// retry policy and the context that bound it.
type Options struct {
	// Obs, when non-nil, records epoch-change lifecycle counters
	// (runs completed, merged entries, rule-4 re-validations).
	Obs *obs.Shard
	// Since restricts SyncStoreRemote to keys whose committed state changed
	// after this timestamp — the delta transfer a replica that already
	// replayed its local write-ahead log uses. Zero (the default) transfers
	// everything.
	Since timestamp.Timestamp
	// SinceWall (a reading of the deployment's clock, 0 = disabled) widens
	// the delta along a second axis: donors also ship keys whose commit they
	// applied at or after this instant, regardless of the commit's timestamp.
	// It covers transactions finalized late with old timestamps (sweeper or
	// backup-coordinator outcomes) that a pure TS filter would miss. Pass
	// the moment the recovering replica went down, minus slack.
	SinceWall int64
}

// coreAck is what one core of one replica has told the epoch change.
type coreAck struct {
	answered bool // phase 1: its epoch-change-ack is in
	whole    bool // the ack's snapshot is the core's whole record (PROTOCOL.md: an ack without evidence)
	resumed  bool // phase 2: its epoch-change-complete-ack is in
	records  []message.TRecordEntry
}

// ecPhase is where the epoch change stands.
type ecPhase uint8

const (
	ecCollect ecPhase = iota // phase 1: pausing cores and collecting their trecord snapshots
	ecInstall                // phase 2: installing the merged trecord and resuming
	ecDone
)

// EpochChange is the epoch change of one partition group to one epoch, as a
// step machine. Each phase has one request, resent under the policy to the
// cores that have not answered it.
type EpochChange struct {
	drive.Policy
	l     *drive.Link
	t     topo.Topology
	p     int
	epoch uint64
	obs   *obs.Shard

	phase ecPhase
	drive.Wait
	acks []coreAck // [replica*Cores+core]
	// wake is when Tick next has to run: the request's wake instant, or zero —
	// at once — when a reply has since completed a tally.
	wake   time.Time
	merged []message.TRecordEntry
	err    error
}

// NewEpochChange returns the machine with its first request due at once.
func NewEpochChange(l *drive.Link, t topo.Topology, p int, epoch uint64, pol drive.Policy, o *obs.Shard) *EpochChange {
	return &EpochChange{
		Policy: pol, l: l, t: t, p: p, epoch: epoch, obs: o,
		Wait: drive.Wait{Kind: drive.WaitResend}, acks: make([]coreAck, t.Replicas*t.Cores),
	}
}

func (ec *EpochChange) Pending() (int, time.Time) {
	if ec.phase == ecDone {
		return 0, time.Time{}
	}
	return 1, ec.wake
}

// Result returns, once nothing is pending, the merged trecord the change
// installed (nil if it never merged) and why it ended: nil, ErrNoQuorum or the
// endpoint's closing.
func (ec *EpochChange) Result() ([]message.TRecordEntry, error) { return ec.merged, ec.err }

// replica reports whether every core of replica r has answered phase 1,
// whether every one did so with its whole record, and whether every one has
// resumed.
func (ec *EpochChange) replica(r int) (answered, whole, resumed bool) {
	answered, whole, resumed = true, true, true
	for _, c := range ec.acks[r*ec.t.Cores : (r+1)*ec.t.Cores] {
		answered, whole, resumed = answered && c.answered, whole && c.answered && c.whole, resumed && c.resumed
	}
	return answered, whole, resumed
}

// count is replica, counted over the group.
func (ec *EpochChange) count() (answered, whole, resumed int) {
	for r := 0; r < ec.t.Replicas; r++ {
		a, w, d := ec.replica(r)
		if a {
			answered++
		}
		if w {
			whole++
		}
		if d {
			resumed++
		}
	}
	return answered, whole, resumed
}

// Reply folds one acknowledgement in: of this epoch, of the phase the change
// is in, once per core.
func (ec *EpochChange) Reply(m *message.Message) {
	if m.Epoch != ec.epoch || int(m.ReplicaID) >= ec.t.Replicas || int(m.CoreID) >= ec.t.Cores {
		return
	}
	a := &ec.acks[int(m.ReplicaID)*ec.t.Cores+int(m.CoreID)]
	switch {
	case m.Type == message.TypeEpochChangeAck && ec.phase == ecCollect && !a.answered:
		// The snapshot is moved out, bytes and all: the driver releases the message.
		m.Disown()
		a.answered, a.whole, a.records = true, m.OK, m.Records
		if n, whole, _ := ec.count(); n == ec.t.Replicas || whole >= ec.t.Majority() && ec.Kind != drive.WaitGrace {
			ec.wake = time.Time{} // Tick closes the collect, or opens the grace window
		}
	case m.Type == message.TypeEpochChangeCompleteAck && ec.phase == ecInstall && !a.resumed:
		a.resumed = true
		if _, _, n := ec.count(); n == ec.t.Replicas {
			ec.finish(nil)
		}
	}
}

// Tick folds the time in. Phase 1 closes the way a validate collect does:
// every replica answered, or a majority of whole-record replicas answered and
// the stragglers' grace window passed. Which replies count is the safety
// rule (PROTOCOL.md, "Epoch change"): below a majority of whole records there
// is no merge, however long the change has waited.
func (ec *EpochChange) Tick(now time.Time) {
	if ec.phase == ecDone {
		return
	}
	n, whole, back := ec.count()
	all, quorum := n == ec.t.Replicas, whole >= ec.t.Majority()
	switch expired := !now.Before(ec.Wake); {
	case ec.Kind == drive.WaitResend && expired:
		ec.Request(&ec.Wait, now)
	case ec.phase == ecInstall:
		// Phase 2's deadline: a majority of fully resumed replicas suffices;
		// a straggler resumes when a resent complete reaches it, or at the
		// next epoch change.
		if expired && ec.Kind == drive.WaitReplies {
			if back >= ec.t.Majority() {
				ec.finish(nil)
			} else {
				ec.retry(now)
			}
		}
	case all && !quorum:
		ec.finish(ErrNoQuorum) // nobody is left to ask
	case all || quorum && expired && ec.Kind != drive.WaitResend:
		ec.install(now)
	case quorum && ec.Kind != drive.WaitGrace:
		ec.Grace(&ec.Wait, now)
	case expired && ec.Kind == drive.WaitReplies:
		ec.retry(now)
	}
	ec.wake = ec.Wake
}

// install merges the whole-record replicas' snapshots — and only theirs — and
// opens phase 2.
func (ec *EpochChange) install(now time.Time) {
	perReplica := make(map[uint32][]message.TRecordEntry)
	for r := 0; r < ec.t.Replicas; r++ {
		if _, whole, _ := ec.replica(r); !whole {
			continue
		}
		for _, c := range ec.acks[r*ec.t.Cores : (r+1)*ec.t.Cores] {
			perReplica[uint32(r)] = append(perReplica[uint32(r)], c.records...)
		}
	}
	ec.merged = mergeTrecords(perReplica, ec.t.F(), ec.obs)
	ec.obs.Add(obs.EpochMergedTxn, uint64(len(ec.merged)))
	ec.phase, ec.Attempt = ecInstall, 0
	ec.Request(&ec.Wait, now)
}

// retry schedules the phase's resend, or gives up once the budget is spent.
func (ec *EpochChange) retry(now time.Time) {
	if !ec.Retry(&ec.Wait, now, 0) {
		ec.finish(ErrNoQuorum)
	}
}

func (ec *EpochChange) finish(err error) {
	if err == nil {
		ec.obs.Inc(obs.EpochChangeRun)
	}
	ec.phase, ec.err = ecDone, err
}

// Perform sends the phase's request to every core that has not answered it.
func (ec *EpochChange) Perform() {
	if !ec.Send || ec.phase == ecDone {
		return
	}
	ec.Send = false
	req := message.Message{Type: message.TypeEpochChange, Epoch: ec.epoch}
	if ec.phase == ecInstall {
		req.Type, req.Records = message.TypeEpochChangeComplete, ec.merged
	}
	var dsts []message.Addr
	for i, a := range ec.acks {
		if ec.phase == ecCollect && !a.answered || ec.phase == ecInstall && !a.resumed {
			dsts = append(dsts, ec.t.ReplicaAddr(ec.p, i/ec.t.Cores, uint32(i%ec.t.Cores)))
		}
	}
	if ec.l.Broadcast(dsts, &req) {
		ec.finish(transport.ErrClosed)
	}
}

// RunEpochChange drives an epoch change to the given epoch number in
// partition p, under the caller's retry policy and until ctx ends. It returns
// the merged trecord it installed. The caller is responsible for invoking it
// on (or on behalf of) the designated recovery coordinator and for choosing
// epoch strictly greater than the current one.
func RunEpochChange(ctx context.Context, net transport.Network, t topo.Topology, p int, epoch uint64, pol drive.Policy, opts Options) ([]message.TRecordEntry, error) {
	// Room for every core's ack and the stragglers of its resends.
	l, err := drive.Listen(net, t.EpochChangeAddr(p), 4096)
	if err != nil {
		return nil, err
	}
	defer l.Ep.Close()
	ec := NewEpochChange(l, t, p, epoch, pol, opts.Obs)
	if err := l.Run(ctx, ec); err != nil {
		return ec.merged, err
	}
	return ec.Result()
}

// mergeTrecords applies the merge rules of §5.3.1 to per-replica trecord
// snapshots and returns the new, all-final trecord:
//
//  1. transactions COMMITTED or ABORTED at any replica keep that outcome;
//  2. transactions accepted from a (backup) coordinator adopt the decision
//     with the latest view;
//  3. transactions with a majority (f+1) of matching VALIDATED-* statuses
//     become COMMITTED/ABORTED accordingly;
//  4. transactions that might have committed on the fast path (at least
//     ceil(f/2)+1 VALIDATED-OK) are re-validated with OCC checks against
//     the transactions already committed in the merged trecord;
//  5. everything else is ABORTED.
//
// o, when non-nil, records the number of rule-4 re-validations.
func mergeTrecords(perReplica map[uint32][]message.TRecordEntry, f int, o *obs.Shard) []message.TRecordEntry {
	type txnState struct {
		entry   message.TRecordEntry // representative (first seen with a body)
		byRep   map[uint32]message.Status
		accepts []message.TRecordEntry
	}
	txns := make(map[timestamp.TxnID]*txnState)
	order := make([]timestamp.TxnID, 0)

	for rep, recs := range perReplica {
		seen := make(map[timestamp.TxnID]bool)
		for i := range recs {
			e := recs[i]
			st := txns[e.Txn.ID]
			if st == nil {
				st = &txnState{entry: e, byRep: make(map[uint32]message.Status)}
				txns[e.Txn.ID] = st
				order = append(order, e.Txn.ID)
			}
			// Prefer a representative that carries the transaction body.
			if st.entry.Txn.Empty() && !e.Txn.Empty() {
				st.entry = e
			}
			if seen[e.Txn.ID] {
				continue // duplicate from a shared-record replica's cores
			}
			seen[e.Txn.ID] = true
			st.byRep[rep] = e.Status
			if e.Status == message.StatusAcceptCommit || e.Status == message.StatusAcceptAbort {
				st.accepts = append(st.accepts, e)
			}
		}
	}

	// Deterministic processing order (map iteration is random).
	sort.Slice(order, func(i, j int) bool { return order[i].Less(order[j]) })

	var merged []message.TRecordEntry
	var candidates []message.TRecordEntry // rule 4, re-validated below
	emit := func(e message.TRecordEntry, st message.Status) {
		e.Status = st
		merged = append(merged, e)
	}

	for _, tid := range order {
		st := txns[tid]
		// Rule 1: finalized anywhere.
		final := message.StatusNone
		for _, s := range st.byRep {
			if s == message.StatusCommitted || s == message.StatusAborted {
				final = s
				break
			}
		}
		if final != message.StatusNone {
			emit(st.entry, final)
			continue
		}
		// Rule 2: accepted decision with the latest view.
		if len(st.accepts) > 0 {
			best := st.accepts[0]
			for _, a := range st.accepts[1:] {
				if a.AcceptView > best.AcceptView {
					best = a
				}
			}
			if best.Status == message.StatusAcceptCommit {
				emit(st.entry, message.StatusCommitted)
			} else {
				emit(st.entry, message.StatusAborted)
			}
			continue
		}
		// Rule 3: majority of matching validated statuses.
		ok, abort := 0, 0
		for _, s := range st.byRep {
			switch s {
			case message.StatusValidatedOK:
				ok++
			case message.StatusValidatedAbort:
				abort++
			}
		}
		switch {
		case ok >= f+1:
			emit(st.entry, message.StatusCommitted)
		case abort >= f+1:
			emit(st.entry, message.StatusAborted)
		case ok >= (f+1)/2+1:
			// Rule 4: possible fast-path commit; re-validate below.
			candidates = append(candidates, st.entry)
		default:
			// Rule 5.
			emit(st.entry, message.StatusAborted)
		}
	}

	// Rule 4 re-validation: replay the already-committed transactions into
	// a scratch store, then run Algorithm 1 for each candidate in
	// timestamp order. A candidate that validates must be the transaction
	// that fast-committed (a conflicting committed transaction would make
	// it fail, and per §5.4 both cannot have committed).
	if len(candidates) > 0 {
		o.Add(obs.EpochRevalidated, uint64(len(candidates)))
		scratch := vstore.New(vstore.Config{Shards: 64})
		for i := range merged {
			if merged[i].Status == message.StatusCommitted {
				occ.ApplyCommit(scratch, &merged[i].Txn, merged[i].TS)
			}
		}
		sort.Slice(candidates, func(i, j int) bool {
			return candidates[i].TS.Less(candidates[j].TS)
		})
		for _, cand := range candidates {
			if occ.Validate(scratch, &cand.Txn, cand.TS) == message.StatusValidatedOK {
				occ.ApplyCommit(scratch, &cand.Txn, cand.TS)
				emit(cand, message.StatusCommitted)
			} else {
				emit(cand, message.StatusAborted)
			}
		}
	}

	return merged
}

// stateTransfer fetches a donor's committed state into dst, one store shard
// per request, as a step machine.
type stateTransfer struct {
	drive.Policy
	l     *drive.Link
	donor message.Addr
	opts  Options
	dst   *vstore.Store

	shard uint64 // the shard being asked for
	drive.Wait
	done bool
	err  error
}

// newStateTransfer returns the machine with the request for shard 0 due at once.
func newStateTransfer(l *drive.Link, donor message.Addr, dst *vstore.Store, pol drive.Policy, opts Options) *stateTransfer {
	return &stateTransfer{Policy: pol, l: l, donor: donor, opts: opts, dst: dst, Wait: drive.Wait{Kind: drive.WaitResend}}
}

func (st *stateTransfer) Pending() (int, time.Time) {
	if st.done {
		return 0, time.Time{}
	}
	return 1, st.Wake
}

// Reply imports the shard being asked for; a reply for any other is a
// straggler of a resent request. The next shard's request is due at once.
func (st *stateTransfer) Reply(m *message.Message) {
	if st.done || m.Type != message.TypeStateReply || m.Seq != st.shard {
		return
	}
	m.Disown() // the store keeps the imported keys and values
	st.dst.ImportState(m.State)
	if st.done = !m.OK; !st.done { // OK: more shards remain
		st.shard++
		st.Wait = drive.Wait{Kind: drive.WaitResend}
	}
}

func (st *stateTransfer) Tick(now time.Time) {
	switch expired := !now.Before(st.Wake); {
	case st.done || !expired:
	case st.Kind == drive.WaitResend:
		st.Request(&st.Wait, now)
	case !st.Retry(&st.Wait, now, 0):
		st.done, st.err = true, ErrNoQuorum
	}
}

func (st *stateTransfer) Perform() {
	if !st.Send || st.done {
		return
	}
	st.Send = false
	req := &message.Message{Type: message.TypeStateRequest, Seq: st.shard, TS: st.opts.Since}
	req.SetSinceWall(st.opts.SinceWall)
	err := st.l.Ep.Send(st.donor, req)
	if errors.Is(err, transport.ErrClosed) {
		st.done, st.err = true, err
	}
}

// SyncStoreRemote transfers the committed state of a live replica into dst
// over the network, shard by shard — the state-transfer step a recovering
// replica runs before the epoch change reconciles in-flight transactions.
// from is the donor replica's index in partition p.
func SyncStoreRemote(ctx context.Context, net transport.Network, t topo.Topology, p, from int, dst *vstore.Store, pol drive.Policy, opts Options) error {
	// A shard's reply and the stragglers of its resends.
	l, err := drive.Listen(net, t.StateTransferAddr(p), 64)
	if err != nil {
		return err
	}
	defer l.Ep.Close()
	st := newStateTransfer(l, t.ReplicaAddr(p, from, 0), dst, pol, opts)
	if err := l.Run(ctx, st); err != nil {
		return err
	}
	return st.err
}
