package meerkat

import (
	"context"
	"errors"
	"time"

	"meerkat/internal/drive"
	"meerkat/internal/recovery"
	"meerkat/internal/replica"
	"meerkat/internal/timestamp"
	"meerkat/internal/vstore"
	"meerkat/internal/wal"
)

// CrashReplica stops replica r of shard p, simulating a process crash:
// its endpoints close, in-flight messages to it are dropped, and — with
// durability enabled — its write-ahead logs are abandoned without a final
// flush, exactly as a killed process would leave them. The deployment keeps
// serving as long as a majority of each group survives (transactions fall
// back to the slow path once a fast quorum is unreachable).
func (a *Admin) CrashReplica(p, r int) {
	db := a.db
	db.mu.Lock()
	rep := db.replicas[p][r]
	db.replicas[p][r] = nil
	if rep != nil {
		// Stamp the crash instant on the clock the stores stamp their applies
		// with: RecoverReplica hands it to donors as the wall-axis delta bound
		// (ship every key whose commit you applied since), which catches
		// commits finalized during the outage with timestamps older than any
		// TS margin.
		db.crashedAt[[2]int{p, r}] = db.clk.Now()
	}
	db.mu.Unlock()
	if rep != nil {
		rep.Crash()
	}
}

// RecoverReplica brings replica r of shard p back. Without durability
// the replica restarts without state and copies the donor's whole committed
// store, per §5.3.1. With durability it first reopens its data directory and
// replays the local snapshot + logs, then fetches only the delta — keys the
// donor saw change after the replayed watermark (minus Durability.
// DeltaMargin, covering out-of-timestamp-order applies) plus keys whose
// commit the donor applied, by its wall clock, since just before the crash
// (covering sweeper/backup-coordinator outcomes whose timestamps are older
// than any margin). Either way the epoch change that follows reconciles
// every in-flight transaction, so the rejoined replica is exactly
// consistent with the group — and it adopts the group's current ownership
// view, post-split included.
//
// The rejoined replica is paused until that epoch change completes at it:
// its record table is empty, so it refuses validates, accepts, commits and
// coordinator changes rather than let an empty record count toward anyone's
// majority, and the epoch change merges only the records of the replicas
// that kept theirs — it needs a majority of those. If the epoch change
// fails (ErrNoQuorum: too few of them reachable), RecoverReplica returns the
// error with the replica left registered and paused; it is not crashed, and
// any later EpochChange(p) that succeeds admits it — calling RecoverReplica
// again runs just that.
func (a *Admin) RecoverReplica(p, r int) error {
	db := a.db
	db.mu.Lock()
	if rep := db.replicas[p][r]; rep != nil {
		db.mu.Unlock()
		if rep.Recovering() {
			return a.EpochChange(p) // an earlier call's epoch change failed: that is all that is left
		}
		return errors.New("meerkat: replica is not crashed")
	}
	crashStamp := db.crashedAt[[2]int{p, r}]
	donor := -1
	for i, rep := range db.replicas[p] {
		if i != r && rep != nil {
			donor = i
			break
		}
	}
	db.mu.Unlock()
	if donor < 0 {
		return errors.New("meerkat: no live replica to recover from")
	}

	// Local replay first (durable deployments), then state transfer over the
	// wire (shard-paginated, delta-filtered); the epoch change below
	// reconciles any in-flight transactions.
	var store *vstore.Store
	var w *wal.Store
	var since timestamp.Timestamp
	var sinceWall int64
	if db.cfg.Durability.Enabled() {
		var recov *wal.Recovered
		var err error
		w, recov, err = wal.Open(db.cfg.Durability.replicaDir(p, r), db.cfg.Cores, db.walOptions())
		if err != nil {
			return err
		}
		store = recov.Store
		if margin := db.cfg.Durability.DeltaMargin.Nanoseconds(); recov.Watermark.Time > margin {
			since = timestamp.Timestamp{Time: recov.Watermark.Time - margin}
		}
		if crashStamp > 0 {
			// Second delta axis: donors also ship keys whose commit they
			// applied (their wall clock) since just before the crash. The
			// slack absorbs group-commit buffering around the crash instant
			// and inter-replica apply latency; over-shipping is only bytes.
			slack := 5*db.cfg.CommitTimeout + 10*db.cfg.Durability.GroupCommitInterval
			if slack < time.Second {
				slack = time.Second
			}
			sinceWall = crashStamp - slack.Nanoseconds()
		}
	} else {
		store = vstore.New(vstore.Config{Clock: db.clk})
	}
	if err := recovery.SyncStoreRemote(context.Background(), db.net, db.topo, p, donor, store, db.policy(),
		recovery.Options{Since: since, SinceWall: sinceWall}); err != nil {
		if w != nil {
			w.Close()
		}
		return err
	}
	rep, err := db.newReplica(p, r, store, w, true)
	if err != nil {
		if w != nil {
			w.Close()
		}
		return err
	}
	db.mu.Lock()
	db.replicas[p][r] = rep
	delete(db.crashedAt, [2]int{p, r})
	db.mu.Unlock()
	if err := a.EpochChange(p); err != nil {
		return err
	}
	if w != nil {
		// Best-effort snapshot: the delta just fetched lives only in memory
		// until a snapshot covers it; taking one now makes the recovery
		// itself durable (failure is fine — the next crash simply fetches
		// the delta again). The WAL store owns the goroutine, so Close and
		// CrashReplica wait for it.
		w.SnapshotAsync(rep.Store())
	}
	return nil
}

// EpochChange runs the epoch change protocol on shard p, pausing the
// group, merging trecords, and resuming. It is invoked automatically by
// RecoverReplica and may be called directly (e.g. to checkpoint).
func (a *Admin) EpochChange(p int) error {
	db := a.db
	db.mu.Lock()
	db.epochs[p]++
	epoch := db.epochs[p]
	db.mu.Unlock()
	_, err := recovery.RunEpochChange(context.Background(), db.net, db.topo, p, epoch, db.policy(), recovery.Options{Obs: db.recObs})
	return err
}

// policy is the deployment's one retry policy, as the epoch change and the
// state transfer run under it; the coordinators take the same four values
// from their Config.
func (db *DB) policy() drive.Policy {
	return drive.Policy{
		Timeout: db.cfg.CommitTimeout, Retries: db.cfg.Retries,
		BackoffBase: db.cfg.BackoffBase, BackoffMax: db.cfg.BackoffMax,
	}
}

// replicaAt returns the live replica instance (tests, stats); nil if
// crashed.
func (db *DB) replicaAt(p, r int) *replica.Replica {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.replicas[p][r]
}
