// Package recovery implements Meerkat's epoch change protocol (§5.3.1),
// which brings all replicas of a partition group to a consistent trecord
// after replica failure and recovery, and doubles as the checkpointing
// mechanism that lets replicas trim their records.
//
// The protocol is inspired by Viewstamped Replication: a designated recovery
// coordinator (the (epoch mod n)th replica; the designation is enforced by
// the caller) polls all replicas, which pause validation and ship their
// trecords; the coordinator merges them with the rules of §5.3.1 and
// installs the merged, all-final trecord everywhere.
package recovery

import (
	"errors"
	"sort"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/occ"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
)

// ErrNoQuorum means the epoch change could not reach a majority of replicas.
var ErrNoQuorum = errors.New("recovery: no quorum of replicas reachable")

// Options tunes an epoch change run.
type Options struct {
	// Timeout bounds each wait for acknowledgements. Defaults to 1s.
	Timeout time.Duration
	// Retries is how many times requests are resent. Defaults to 5.
	Retries int
	// Obs, when non-nil, records epoch-change lifecycle counters
	// (runs completed, merged entries, rule-4 re-validations).
	Obs *obs.Shard
	// Since restricts SyncStoreRemote to keys whose committed state changed
	// after this timestamp — the delta transfer a replica that already
	// replayed its local write-ahead log uses. Zero (the default) transfers
	// everything.
	Since timestamp.Timestamp
	// SinceWall (UnixNano, 0 = disabled) widens the delta along a second
	// axis: donors also ship keys whose commit they applied at or after this
	// local wall-clock instant, regardless of the commit's timestamp. It
	// covers transactions finalized late with old timestamps (sweeper or
	// backup-coordinator outcomes) that a pure TS filter would miss. Pass
	// the moment the recovering replica went down, minus clock-skew slack.
	SinceWall int64
}

func (o *Options) fill() {
	if o.Timeout == 0 {
		o.Timeout = time.Second
	}
	if o.Retries == 0 {
		o.Retries = 5
	}
}

// coreKey identifies one core of one replica.
type coreKey struct {
	replica uint32
	core    uint32
}

// RunEpochChange drives an epoch change to the given epoch number in
// partition p. It returns the merged trecord it installed. The caller is
// responsible for invoking it on (or on behalf of) the designated recovery
// coordinator and for choosing epoch strictly greater than the current one.
func RunEpochChange(net transport.Network, t topo.Topology, p int, epoch uint64, opts Options) ([]message.TRecordEntry, error) {
	opts.fill()
	in := transport.NewInbox(4096)
	ep, err := net.Listen(t.EpochChangeAddr(p), in.Handle)
	if err != nil {
		return nil, err
	}
	defer ep.Close()

	// All cores of all replicas in the group.
	var targets []message.Addr
	for r := 0; r < t.Replicas; r++ {
		for c := 0; c < t.Cores; c++ {
			targets = append(targets, t.ReplicaAddr(p, r, uint32(c)))
		}
	}

	// Phase 1: pause and collect per-core trecord snapshots. A replica
	// counts once all of its cores have acknowledged.
	//
	// The merge wants the records of every replica it can possibly reach, not
	// just a bare majority: a transaction's only commit evidence can live
	// wholly on one replica (its finalize message was dropped elsewhere, and
	// the peer that did apply it crashed and recovered with an empty record),
	// and a merge built without that replica silently aborts a transaction
	// whose coordinator already reported commit. So keep resending to
	// stragglers until every replica has answered, and settle for a majority
	// only once the retry budget is spent.
	acks := make(map[coreKey][]message.TRecordEntry)
	replicaDone := func() int {
		counts := make(map[uint32]int)
		for k := range acks {
			counts[k.replica]++
		}
		n := 0
		for _, c := range counts {
			if c == t.Cores {
				n++
			}
		}
		return n
	}

	for attempt := 0; attempt <= opts.Retries && replicaDone() < t.Replicas; attempt++ {
		for _, dst := range targets {
			if _, ok := acks[coreKey{dst.Node - t.ReplicaNode(p, 0), dst.Core}]; ok {
				continue
			}
			ep.Send(dst, &message.Message{Type: message.TypeEpochChange, Epoch: epoch})
		}
		// Once a majority is in, later rounds only chase stragglers whose
		// messages were lost; don't stall recovery a full timeout for each.
		wait := opts.Timeout
		if replicaDone() >= t.Majority() {
			wait = opts.Timeout / 5
		}
		deadline := time.NewTimer(wait)
	collect:
		for {
			select {
			case m := <-in.C:
				if m.Type != message.TypeEpochChangeAck || m.Epoch != epoch {
					continue
				}
				acks[coreKey{m.ReplicaID, m.CoreID}] = m.Records
				if replicaDone() == t.Replicas {
					deadline.Stop()
					break collect
				}
			case <-deadline.C:
				break collect
			}
		}
	}
	if replicaDone() < t.Majority() {
		return nil, ErrNoQuorum
	}

	// Merge the snapshots from replicas that fully acknowledged.
	perReplica := make(map[uint32][]message.TRecordEntry)
	counts := make(map[uint32]int)
	for k := range acks {
		counts[k.replica]++
	}
	for k, recs := range acks {
		if counts[k.replica] == t.Cores {
			perReplica[k.replica] = append(perReplica[k.replica], recs...)
		}
	}
	merged := mergeTrecords(perReplica, t.F(), opts.Obs)
	opts.Obs.Add(obs.EpochMergedTxn, uint64(len(merged)))

	// Phase 2: install the merged trecord and resume.
	done := make(map[coreKey]bool)
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		for _, dst := range targets {
			if done[coreKey{dst.Node - t.ReplicaNode(p, 0), dst.Core}] {
				continue
			}
			ep.Send(dst, &message.Message{
				Type: message.TypeEpochChangeComplete, Epoch: epoch, Records: merged,
			})
		}
		deadline := time.NewTimer(opts.Timeout)
		for {
			stop := false
			select {
			case m := <-in.C:
				if m.Type != message.TypeEpochChangeCompleteAck || m.Epoch != epoch {
					continue
				}
				done[coreKey{m.ReplicaID, m.CoreID}] = true
				if len(done) == t.Replicas*t.Cores {
					deadline.Stop()
					opts.Obs.Inc(obs.EpochChangeRun)
					return merged, nil
				}
			case <-deadline.C:
				stop = true
			}
			if stop {
				break
			}
		}
		// A majority of fully-resumed replicas suffices to declare the
		// epoch change complete; stragglers resume when the resent
		// complete message reaches them.
		resumed := make(map[uint32]int)
		for k := range done {
			resumed[k.replica]++
		}
		full := 0
		for _, c := range resumed {
			if c == t.Cores {
				full++
			}
		}
		if full >= t.Majority() {
			opts.Obs.Inc(obs.EpochChangeRun)
			return merged, nil
		}
	}
	return merged, ErrNoQuorum
}

// MergeTrecords applies the merge rules of §5.3.1 to per-replica trecord
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
func MergeTrecords(perReplica map[uint32][]message.TRecordEntry, f int) []message.TRecordEntry {
	return mergeTrecords(perReplica, f, nil)
}

// mergeTrecords is MergeTrecords with an optional obs shard recording the
// number of rule-4 re-validations.
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

// SyncStoreRemote transfers the committed state of a live replica into dst
// over the network, shard by shard — the state-transfer step a recovering
// replica runs before the epoch change reconciles in-flight transactions.
// It works across processes (unlike SyncStore, which needs both stores in
// memory). from is the donor replica's index in partition p.
func SyncStoreRemote(net transport.Network, t topo.Topology, p, from int, dst *vstore.Store, opts Options) error {
	opts.fill()
	in := transport.NewInbox(64)
	ep, err := net.Listen(t.StateTransferAddr(p), in.Handle)
	if err != nil {
		return err
	}
	defer ep.Close()

	donor := t.ReplicaAddr(p, from, 0)
	for shard := uint64(0); ; {
		got := false
		for attempt := 0; attempt <= opts.Retries && !got; attempt++ {
			// View carries the wall-clock bound: unused by TypeStateRequest
			// otherwise, so this adds nothing to the wire format.
			ep.Send(donor, &message.Message{
				Type: message.TypeStateRequest, Seq: shard,
				TS: opts.Since, View: uint64(opts.SinceWall),
			})
			deadline := time.NewTimer(opts.Timeout)
		wait:
			for {
				select {
				case m := <-in.C:
					if m.Type != message.TypeStateReply || m.Seq != shard {
						continue
					}
					deadline.Stop()
					states := make([]vstore.KeyState, len(m.State))
					for i := range m.State {
						states[i] = vstore.KeyState{
							Key: m.State[i].Key, Value: m.State[i].Value,
							WTS: m.State[i].WTS, RTS: m.State[i].RTS,
						}
					}
					dst.ImportState(states)
					if !m.OK {
						return nil // last shard
					}
					got = true
					break wait
				case <-deadline.C:
					break wait
				}
			}
		}
		if !got {
			return ErrNoQuorum
		}
		shard++
	}
}

// SyncStore copies the committed state of src into dst: each key's latest
// version and its read timestamp. It is the state-transfer step a recovering
// replica performs before rejoining (the epoch change then reconciles any
// in-flight transactions). The copy is taken key by key with src live, which
// is safe because version installs are monotonic.
func SyncStore(dst, src *vstore.Store) {
	src.Range(func(key string, v vstore.Version) bool {
		dst.Load(key, v.Value, v.WTS)
		if _, rts := src.Meta(key); !rts.IsZero() {
			dst.CommitRead(key, rts)
		}
		return true
	})
}
