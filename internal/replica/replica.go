// Package replica implements a Meerkat multicore transactional database
// instance (§4.1): the three-layer system of versioned storage, concurrency
// control, and replication that runs on every replica server.
//
// Each replica runs Cores server threads. Every core owns one transport
// endpoint (its "NIC queue") and one trecord partition; because a core's
// handler runs only on its endpoint's delivery goroutine, the partition
// needs no locks. Transactions are steered to a core by the coordinator's
// chosen core id, reproducing the paper's Receive-Side Scaling trick, so all
// messages for one transaction are handled by one core.
//
// The SharedRecord option replaces the per-core partitions with a single
// mutex-protected record per replica — exactly the cross-core coordination
// point of the paper's TAPIR-like baseline — leaving every other code path
// identical, which is what makes the Meerkat/TAPIR comparison an ablation of
// the trecord design alone.
package replica

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/coordinator"
	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/occ"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/trecord"
	"meerkat/internal/vstore"
	"meerkat/internal/wal"
)

// Config parameterizes a replica.
type Config struct {
	Topo      topo.Topology
	Partition int // which partition group this replica belongs to
	Index     int // replica index within the group, 0..Replicas-1
	Net       transport.Network

	// Store, when non-nil, is used as the versioned storage layer
	// (pre-loaded databases, tests); otherwise an empty store is created.
	Store *vstore.Store

	// WAL, when non-nil, is the replica's durability layer: each core
	// appends commit records to its own log before applying them (write-
	// ahead ordering), and Start launches the periodic snapshotter. The
	// WAL must have exactly Topo.Cores logs. The replica takes ownership:
	// Stop closes it gracefully (flush + fsync), Crash drops it.
	WAL *wal.Store

	// SharedRecord selects the TAPIR-like baseline: one transaction
	// record per replica, shared across cores behind a mutex.
	SharedRecord bool

	// SweepInterval enables the backup-coordinator sweeper: every
	// interval, each core scans its records for transactions stalled
	// longer than StaleAfter and completes them through coordinator
	// recovery. Zero disables sweeping.
	SweepInterval time.Duration
	// StaleAfter is how long a non-final record may sit before the
	// sweeper considers its coordinator failed. Defaults to 5x
	// SweepInterval.
	StaleAfter time.Duration
	// Policy is the deployment's retry policy, under which this replica's
	// backup coordinator runs its recoveries.
	Policy drive.Policy

	// CompactOnEpochChange trims finalized records from the trecord after
	// an epoch change installs the merged (all-final) trecord — the
	// checkpoint trimming of §5.3.1. Retries of trimmed transactions can
	// no longer be answered from the record, so enable it only when
	// clients give up well within an epoch.
	CompactOnEpochChange bool

	// Obs, when non-nil, receives replica-side lifecycle events. Each core
	// draws its own shard from the registry, so recording follows the same
	// per-core ownership discipline as the trecord itself.
	Obs *obs.Registry

	// Ownership, when non-nil, is this replica group's shard-ownership view
	// (shared by all the group's replicas and surviving crash recovery).
	// Requests touching a key the view says this group no longer owns are
	// answered with a WrongShard redirect instead of being executed, which
	// is what makes a shard split's seal effective: after the new view is
	// installed, no new transaction can validate against the moved range
	// here. Nil means the group owns every key (unsharded deployment) and
	// costs a single nil check on the hot path.
	Ownership *shardmap.Ownership

	// Recovering marks a replica rejoining after a crash: its store was
	// rebuilt from a donor copy (plus any local WAL replay), but it is blind
	// to transactions that were in flight around the transfer — it holds
	// none of their pending registrations, so its snapshot-read bound would
	// wrongly confirm snapshots those transactions can still commit under.
	// Until the first epoch change completes (which decides and applies
	// every in-flight transaction), the replica serves snapshot reads with
	// an unconfirmed watermark, refuses validate, accept, commit and
	// coordinator-change like a core an epoch change has paused, and marks its
	// epoch-change-acks as carrying no evidence.
	Recovering bool
}

// Replica is one Meerkat database instance.
type Replica struct {
	cfg    Config
	store  *vstore.Store
	cores  []*core
	shared *trecord.Shared // non-nil iff cfg.SharedRecord
	epoch  atomic.Uint64

	// g is the replica's clock — Net's, which ages the records — and the
	// lifetime of what it runs in the background: the sweep tick and the
	// recovery worker. Stop and Crash close it.
	g *clock.Group

	// The sweepers' recoveries run one at a time on one goroutine, which owns
	// the recoverer: recoverLoop takes them off stale until g closes.
	recoverer *coordinator.Recoverer
	stale     chan staleTxn

	// recovering is set at construction for crash-recovered replicas and
	// cleared once every core has installed an epoch-change merge; while
	// set, snapshot reads report an unconfirmed watermark (see
	// Config.Recovering). recoveryLeft counts the cores still to install
	// (the store is replica-wide, so one caught-up core does not make the
	// whole store trustworthy).
	recovering   atomic.Bool
	recoveryLeft atomic.Int32

	started bool
	stopped atomic.Bool
}

// core is one server thread: an endpoint, a trecord partition, and the
// message handlers. All fields past ep are owned by the delivery goroutine.
type core struct {
	r  *Replica
	id uint32
	// ep is published atomically: a transport's delivery goroutine may
	// invoke the handler before Listen returns to Start.
	ep   atomic.Pointer[transport.Endpoint]
	part *trecord.Partition // used only when !SharedRecord
	// paused: an epoch change is in progress, or (Config.Recovering) the first
	// is still to come.
	paused bool
	// recovered marks that this core has installed an epoch-change merge
	// since a crash recovery (see Replica.recoveryLeft).
	recovered bool
	// installed is the epoch whose merge this core last installed: requests of
	// an epoch up to it are stragglers of resends (PROTOCOL.md, "Epoch
	// change", step 5).
	installed uint64
	obs       *obs.Shard            // per-core lifecycle recorder (nil-safe)
	log       *wal.Log              // this core's write-ahead log (nil without durability)
	wm        *occ.WatermarkTracker // this core's commit watermark (advisory)
}

// send transmits m from this core's endpoint, dropping it if the endpoint
// is not yet published (a message raced the bind; the sender will retry).
// Either way m is no longer the caller's.
func (c *core) send(dst message.Addr, m *message.Message) {
	if ep := c.ep.Load(); ep != nil {
		(*ep).Send(dst, m)
		return
	}
	message.ReleaseMessage(m)
}

// newReply returns a pooled message of type t addressed from this replica,
// for the hot-path handlers to fill in and send.
func (c *core) newReply(t message.Type) *message.Message {
	m := message.AcquireMessage()
	m.Type = t
	m.ReplicaID = uint32(c.r.cfg.Index)
	return m
}

// New creates a replica. Call Start to bind its endpoints.
func New(cfg Config) (*Replica, error) {
	if !cfg.Topo.Validate() {
		return nil, fmt.Errorf("replica: invalid topology %+v", cfg.Topo)
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Topo.Replicas {
		return nil, fmt.Errorf("replica: index %d out of range", cfg.Index)
	}
	if cfg.Net == nil {
		return nil, fmt.Errorf("replica: no network")
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = 5 * cfg.SweepInterval
	}
	if cfg.WAL != nil && cfg.WAL.Cores() != cfg.Topo.Cores {
		return nil, fmt.Errorf("replica: WAL has %d logs, topology has %d cores",
			cfg.WAL.Cores(), cfg.Topo.Cores)
	}
	st := cfg.Store
	if st == nil {
		st = vstore.New(vstore.Config{Clock: cfg.Net.Clock()})
	}
	r := &Replica{cfg: cfg, store: st, g: clock.NewGroup(cfg.Net.Clock())}
	r.recovering.Store(cfg.Recovering)
	if cfg.Recovering {
		r.recoveryLeft.Store(int32(cfg.Topo.Cores))
	}
	if cfg.SharedRecord {
		r.shared = trecord.NewShared()
	}
	for c := 0; c < cfg.Topo.Cores; c++ {
		// A recovering replica is paused from birth (PROTOCOL.md, "Epoch
		// change"): its record table is empty, and an empty record must not
		// count toward anyone's majority before the first merge fills it.
		cc := &core{r: r, id: uint32(c), paused: cfg.Recovering, obs: cfg.Obs.NewShard(), wm: occ.NewWatermarkTracker()}
		if !cfg.SharedRecord {
			cc.part = trecord.NewPartition()
		}
		if cfg.WAL != nil {
			cc.log = cfg.WAL.Log(c)
			// The apply hook runs inside AppendCommit's critical section:
			// appending and applying atomically is what makes snapshot log
			// truncation safe (see finalize and wal.Store.Snapshot).
			cc.log.SetApply(func(txn *message.Txn, ts timestamp.Timestamp) {
				occ.ApplyCommit(st, txn, ts)
			})
		}
		r.cores = append(r.cores, cc)
	}
	return r, nil
}

// Store returns the replica's versioned storage layer, for pre-loading and
// verification.
func (r *Replica) Store() *vstore.Store { return r.store }

// WAL returns the replica's durability layer, or nil when running
// in-memory only.
func (r *Replica) WAL() *wal.Store { return r.cfg.WAL }

// Node returns the replica's node id.
func (r *Replica) Node() uint32 {
	return r.cfg.Topo.ReplicaNode(r.cfg.Partition, r.cfg.Index)
}

// Recovering reports whether the replica is still waiting for its first epoch
// change since crash recovery (Config.Recovering).
func (r *Replica) Recovering() bool { return r.recovering.Load() }

// Epoch returns the replica's current epoch number.
func (r *Replica) Epoch() uint64 { return r.epoch.Load() }

// Records returns the total number of transaction records currently held
// across all cores. The per-core partitions are unsynchronized, so call it
// only while the replica is quiescent (tests and diagnostics).
func (r *Replica) Records() int {
	if r.shared != nil {
		return r.shared.Len()
	}
	n := 0
	for _, c := range r.cores {
		n += c.part.Len()
	}
	return n
}

// Start binds one endpoint per core and starts sweepers if configured.
func (r *Replica) Start() error {
	if r.started {
		return fmt.Errorf("replica: already started")
	}
	r.started = true
	for _, c := range r.cores {
		addr := message.Addr{Node: r.Node(), Core: c.id}
		ep, err := r.cfg.Net.Listen(addr, c.handle)
		if err != nil {
			r.Stop()
			return err
		}
		c.ep.Store(&ep)
	}
	if r.cfg.WAL != nil {
		r.cfg.WAL.StartSnapshotter(r.store)
	}
	if r.cfg.SweepInterval > 0 {
		rec, err := coordinator.NewRecoverer(
			r.cfg.Net, r.cfg.Topo,
			r.cfg.Topo.RecovererAddr(r.cfg.Partition, r.cfg.Index),
			uint64(r.cfg.Index), r.cfg.Policy,
		)
		if err != nil {
			r.Stop()
			return err
		}
		r.recoverer = rec
		// Room for every transaction a coordinator crash can strand at once; a
		// sweep that finds the queue full leaves the rest to the next one.
		r.stale = make(chan staleTxn, 1024)
		r.g.Go(r.recoverLoop)
		// Each tick injects a sweep message into every core's own queue, so
		// the scan itself runs on the delivery goroutine like everything else.
		r.g.Every(r.cfg.SweepInterval, func() {
			for _, c := range r.cores {
				c.send((*c.ep.Load()).Addr(), &message.Message{Type: message.TypeSweep})
			}
		})
	}
	return nil
}

// Stop gracefully closes all endpoints, stops sweepers, and — with
// durability enabled — flushes and fsyncs every core's log before closing
// it, so a stopped replica loses nothing. The replica cannot be restarted;
// create a new one (with durability, Open replays its directory).
func (r *Replica) Stop() {
	r.shutdown(false)
}

// Crash simulates a process crash: endpoints close, but the write-ahead
// logs are dropped without flushing their pending buffers (wal.Store.Crash).
// This is what a chaos CrashReplica should call so that recovery is
// exercised against realistically torn logs.
func (r *Replica) Crash() {
	r.shutdown(true)
}

func (r *Replica) shutdown(crash bool) {
	if r.stopped.Swap(true) {
		return
	}
	// The sweep tick and the recovery in flight end first, before the
	// endpoints they send on go.
	r.g.Close()
	for _, c := range r.cores {
		if ep := c.ep.Load(); ep != nil {
			(*ep).Close()
		}
	}
	if r.recoverer != nil {
		r.recoverer.Close()
	}
	if r.cfg.WAL != nil {
		if crash {
			r.cfg.WAL.Crash()
		} else {
			r.cfg.WAL.Close()
		}
	}
}

// Load installs an initial version of key, bypassing concurrency control
// (bulk-loading before a run). With durability enabled the load goes through
// core 0's log, whose apply hook installs the version — appending and
// applying atomically, so a concurrent snapshot cannot truncate the load
// record before the export observes it.
func (r *Replica) Load(key string, value []byte, ts timestamp.Timestamp) {
	if r.cfg.WAL != nil {
		r.cfg.WAL.Log(0).AppendLoad(key, value, ts)
		return
	}
	r.store.Load(key, value, ts)
}

// withRecords runs fn against the record table a transaction on this core
// belongs to: the core-private partition (Meerkat) or the shared record
// behind its mutex (TAPIR-like). Cold paths (recovery, epoch change,
// sweeping) use it for the convenience of the closure; the per-message hot
// handlers use lockRecords/unlockRecords instead, which cost no closure
// allocation.
func (c *core) withRecords(fn func(p *trecord.Partition)) {
	if c.part != nil {
		fn(c.part)
		return
	}
	c.r.shared.Do(fn)
}

// lockRecords returns the record table for this core, locking it in shared
// mode. Pair with unlockRecords; the partition must not be retained past it.
func (c *core) lockRecords() *trecord.Partition {
	if c.part != nil {
		return c.part
	}
	return c.r.shared.Lock()
}

// unlockRecords releases the lock taken by lockRecords (a no-op in per-core
// mode, where the partition is private to this delivery goroutine).
func (c *core) unlockRecords() {
	if c.part == nil {
		c.r.shared.Unlock()
	}
}

// handle dispatches one inbound message and then recycles it, and with it the
// bytes a decoded message's keys and values are cut from: the core is the
// message's final consumer, and a handler that keeps any of its payload has
// taken it out by the time it returns — validate and accept the transaction
// body, into the chunks of the core's record partition (TakeTxn), the epoch
// change's install the whole merge (Disown), a read nothing (the store copies
// the name of an entry it creates). It runs on the core's delivery goroutine.
func (c *core) handle(m *message.Message) {
	switch m.Type {
	case message.TypeMultiRead:
		c.handleRead(m)
	case message.TypeValidate:
		c.handleValidate(m)
	case message.TypeAccept:
		c.handleAccept(m)
	case message.TypeCommit:
		c.handleCommit(m)
	case message.TypeCoordChange:
		c.handleCoordChange(m)
	case message.TypeEpochChange:
		c.handleEpochChange(m)
	case message.TypeEpochChangeComplete:
		c.handleEpochChangeComplete(m)
	case message.TypeStateRequest:
		c.handleStateRequest(m)
	case message.TypeSweep:
		c.handleSweep()
	}
	message.ReleaseMessage(m)
}

// handleStateRequest serves one shard of the versioned store to a
// recovering replica (state transfer, §5.3.1). The requester paginates by
// shard index in Seq; OK reports whether more shards remain. TS, when
// non-zero, is a delta watermark: only keys written or read after it are
// shipped, so a replica that replayed its local write-ahead log fetches a
// fraction of the store. SinceWall, when non-zero, is a second bound, on the
// deployment's clock: also ship keys whose commit was applied on this donor
// at or after it, which covers commits finalized late with old timestamps
// (sweeper / backup-coordinator outcomes) that the TS filter would miss.
func (c *core) handleStateRequest(m *message.Message) {
	shard := int(m.Seq)
	c.send(m.Src, &message.Message{
		Type:      message.TypeStateReply,
		Seq:       m.Seq,
		OK:        shard+1 < c.r.store.NumShards(),
		State:     c.r.store.ExportShardSince(shard, m.TS, m.SinceWall()),
		ReplicaID: uint32(c.r.cfg.Index),
	})
}

// ownView returns this group's shard-ownership view, or nil when the group
// owns every key (unsharded deployment — one nil check on the hot path).
func (c *core) ownView() *shardmap.View {
	if c.r.cfg.Ownership == nil {
		return nil
	}
	return c.r.cfg.Ownership.Load()
}

// ownsKeys reports whether view v (nil = owns everything) covers every key
// of keys.
func ownsKeys(v *shardmap.View, keys []string) bool {
	if v == nil {
		return true
	}
	for _, k := range keys {
		if !v.Owns(shardmap.Hash(k)) {
			return false
		}
	}
	return true
}

// ownsTxn reports whether view v covers every key the transaction touches.
func ownsTxn(v *shardmap.View, t *message.Txn) bool {
	if v == nil {
		return true
	}
	for i := range t.ReadSet {
		if !v.Owns(shardmap.Hash(t.ReadSet[i].Key)) {
			return false
		}
	}
	for i := range t.WriteSet {
		if !v.Owns(shardmap.Hash(t.WriteSet[i].Key)) {
			return false
		}
	}
	for i := range t.OpSet {
		if !v.Owns(shardmap.Hash(t.OpSet[i].Key)) {
			return false
		}
	}
	return true
}

// handleRead serves the execution phase (§5.2.1): one reply slot per requested
// key, index-aligned with the request and built in the pooled reply's own
// array. A request without a timestamp is a plain read of every key's latest
// committed version; it only touches the versioned store, one per-key lock per
// key — never the trecord — so any core of any replica can serve it, and
// batching adds no coordination.
//
// A request with one is a snapshot read pinned at m.TS for the read-only fast
// path. Every key is answered at that timestamp (newest version at or below
// it), and — inside the same per-key critical section — the store raises the
// key's read timestamp to it, so no yet-unvalidated write can ever commit
// under the snapshot. The reply's Watermark is then the minimum per-key
// confirmation bound: it equals m.TS exactly when no pending
// (prepared-but-undecided) writer sits at or below the snapshot on any
// requested key, i.e. when every answered version is final with respect to
// this replica.
func (c *core) handleRead(m *message.Message) {
	r := c.newReply(message.TypeMultiReadReply)
	r.Seq = m.Seq
	// Ownership is checked once, before any store access: an unowned snapshot
	// read must not raise read timestamps here — the moved range's rts now
	// lives with the new owner, and raising it on a sealed copy would be dead
	// state.
	if v := c.ownView(); !ownsKeys(v, m.Keys) {
		c.obs.Inc(obs.WrongShardRedirect)
		r.WrongShard, r.MapVersion = true, v.Version()
		c.send(m.Src, r)
		return
	}
	snap, plain := m.TS, m.TS.IsZero()
	reads, wmin := r.OwnReads(len(m.Keys)), snap
	for i, k := range m.Keys {
		var (
			v  vstore.Version
			ok bool
		)
		if plain {
			v, ok = c.r.store.Read(k)
		} else {
			var bound timestamp.Timestamp
			if v, bound, ok = c.r.store.SnapshotRead(k, snap); bound.Less(wmin) {
				wmin = bound
			}
		}
		reads[i] = message.ReadResult{Value: v.Value, WTS: v.WTS, OK: ok, Op: v.Op}
	}
	if plain {
		c.obs.Inc(obs.MultiReadServed)
		r.Watermark = c.wm.Watermark()
	} else {
		c.obs.Inc(obs.SnapshotRead)
		c.wm.Advance(wmin)
		// A crash-recovered replica is blind to transactions in flight
		// around its state transfer (their pending registrations died with
		// the old process), so its per-key bound cannot be trusted until the
		// first epoch change decides and applies all of them. Likewise a
		// core paused mid-epoch-change hasn't installed the merge yet and
		// may be missing outcomes it is about to learn. Serve the values in
		// both cases, but never confirm: the watermark stays zero.
		if !c.paused && !c.r.recovering.Load() {
			r.Watermark = wmin
		}
	}
	c.send(m.Src, r)
}

// handleValidate runs step 2 of the commit protocol: create the trecord
// entry and perform the OCC checks of Algorithm 1.
func (c *core) handleValidate(m *message.Message) {
	if c.paused {
		return // epoch change in progress; the coordinator will retry
	}
	p := c.lockRecords()
	tid := m.Txn.ID
	reply := c.newReply(message.TypeValidateReply)
	reply.TID = tid
	rec := p.Get(tid)
	if rec != nil && rec.Status != message.StatusNone {
		// Duplicate (a retry): re-reply with the recorded status. This takes
		// precedence over the ownership check — a record finalized before (or
		// by) a shard split's fence is historical truth, and a retry must
		// learn that outcome, not a redirect.
		reply.Status, reply.View = rec.Status, rec.View
	} else if v := c.ownView(); !ownsTxn(v, &m.Txn) {
		// New validation touching a key this group no longer owns: refuse
		// without creating a record — post-seal, nothing new may prepare
		// against the moved range here. The client refreshes its map and
		// re-routes.
		c.obs.Inc(obs.WrongShardRedirect)
		reply.WrongShard, reply.MapVersion = true, v.Version()
	} else {
		if rec == nil {
			rec, _ = p.GetOrCreate(tid)
		}
		// The record keeps the transaction body: take it out of the message,
		// which is recycled — its bytes and arrays with it — when this handler
		// returns, into the chunks of the core's record partition.
		rec.Txn = m.TakeTxn(&p.Chunks)
		rec.TS = m.TS
		rec.CreatedAt = c.r.g.Now()
		st := occ.Validate(c.r.store, &rec.Txn, m.TS)
		rec.Status = st
		rec.Registered = st == message.StatusValidatedOK
		if st == message.StatusValidatedOK {
			c.wm.Add(tid, m.TS)
			c.obs.Inc(obs.ValidateOK)
		} else {
			c.obs.Inc(obs.ValidateAbort)
		}
		reply.Status, reply.View = st, rec.View
	}
	c.unlockRecords()
	c.send(m.Src, reply)
}

// handleAccept runs the replica side of the slow path (step 5), which
// doubles as the accept phase of coordinator recovery: adopt the proposed
// outcome unless a higher view has been promised.
func (c *core) handleAccept(m *message.Message) {
	if c.paused {
		return
	}
	p := c.lockRecords()
	reply := c.newReply(message.TypeAcceptReply)
	reply.TID = m.TID
	rec, created := p.GetOrCreate(m.TID)
	if created {
		rec.CreatedAt = c.r.g.Now()
	}
	// A replica that missed the validate learns the transaction body
	// from the accept, so it can apply the write phase on commit (taken
	// out of the message, as in handleValidate).
	if rec.Txn.Empty() && !m.Txn.Empty() {
		rec.Txn = m.TakeTxn(&p.Chunks)
		rec.TS = m.TS
	}
	if rec.Txn.ID.IsZero() {
		rec.Txn.ID = m.TID
	}
	switch {
	case rec.Status.Final():
		// Already decided; ack with the outcome, so the (backup) coordinator
		// finishes with it. All coordinators reach the same decision
		// (§5.3.2), but an epoch change's merge may have decided first — and
		// aborted what this proposer, short of a majority, proposes to commit.
		c.obs.Inc(obs.AcceptAcked)
		reply.OK, reply.View, reply.Status = true, m.View, rec.Status
	case m.View < rec.View:
		c.obs.Inc(obs.AcceptRejected)
		reply.OK, reply.View = false, rec.View
	default:
		rec.View = m.View
		rec.AcceptView = m.View
		rec.Status = m.Status // ACCEPT-COMMIT or ACCEPT-ABORT
		if m.Status == message.StatusAcceptCommit {
			// A replica that never validated this transaction (dropped
			// validate, or its own validation aborted and backed out) has
			// nothing registered in the store, so snapshot reads here would
			// not see the accepted write as pending and could confirm a
			// snapshot the transaction commits below. Register the intents
			// now; finalize clears them through the usual commit/abort paths.
			if !rec.Registered && !rec.Txn.Empty() {
				occ.RegisterPending(c.r.store, &rec.Txn, rec.TS)
				rec.Registered = true
			}
			c.wm.Add(m.TID, rec.TS)
		} else {
			c.wm.Finalize(m.TID)
		}
		c.obs.Inc(obs.AcceptAcked)
		reply.OK, reply.View = true, m.View
	}
	c.unlockRecords()
	c.send(m.Src, reply)
}

// handleCommit runs the write phase (§5.2.3): finalize the record and apply
// or back out its effects.
func (c *core) handleCommit(m *message.Message) {
	if c.paused {
		return // the epoch-change merge will finalize it consistently
	}
	p := c.lockRecords()
	if rec := p.Get(m.TID); rec != nil {
		if c.finalize(rec, m.Status) {
			if m.Status == message.StatusCommitted {
				c.obs.Inc(obs.CommitApplied)
			} else {
				c.obs.Inc(obs.AbortApplied)
			}
		}
	}
	// A nil record means this replica never saw the transaction (dropped
	// validate); it will learn the outcome during the next epoch change.
	c.unlockRecords()
}

// finalize moves rec to final status st and applies (commit) or backs out
// (abort) its effects in the store. Idempotent: a record already final is
// left untouched. Reports whether it transitioned the record (so callers can
// count applies exactly once).
//
// With durability enabled, a commit goes through AppendCommit, whose apply
// hook (wired in New) installs the effects inside the log's own critical
// section — write-ahead ordering (the record is buffered, or fsynced under
// SyncAlways, before its effects become observable) AND atomicity against
// the snapshot mark (a pre-mark segment can never be truncated while it
// holds the only copy of a record the store export has not yet observed).
// Only commits are logged; aborts leave no observable state, so replay needs
// nothing from them.
func (c *core) finalize(rec *trecord.Record, st message.Status) bool {
	if rec.Status.Final() {
		return false
	}
	wasRegistered := rec.Registered
	rec.Registered = false
	rec.Status = st
	c.wm.Finalize(rec.Txn.ID)
	switch {
	case st == message.StatusCommitted && c.log != nil:
		c.log.AppendCommit(&rec.Txn, rec.TS)
	case st == message.StatusCommitted:
		occ.ApplyCommit(c.r.store, &rec.Txn, rec.TS)
	case wasRegistered:
		occ.ApplyAbort(c.r.store, &rec.Txn, rec.TS)
	}
	if st == message.StatusCommitted && len(rec.Txn.OpSet) > 0 {
		c.obs.Inc(obs.OpCommitApplied)
		c.obs.Add(obs.OpMerged, uint64(len(rec.Txn.OpSet)))
	}
	return true
}

// handleCoordChange is the prepare-like phase of coordinator recovery: if
// the proposed view is newer than any this replica has seen for the
// transaction, promise it and report the transaction's record.
func (c *core) handleCoordChange(m *message.Message) {
	if c.paused {
		return
	}
	var reply *message.Message
	c.withRecords(func(p *trecord.Partition) {
		rec, created := p.GetOrCreate(m.TID)
		if created {
			rec.CreatedAt = c.r.g.Now()
		}
		if m.View <= rec.View {
			// Only strictly newer views supersede. View 0 belongs to the
			// original coordinator and needs no coordinator change.
			reply = &message.Message{
				Type: message.TypeCoordChangeAck, TID: m.TID, OK: false,
				View: rec.View, ReplicaID: uint32(c.r.cfg.Index),
			}
			return
		}
		rec.View = m.View
		c.obs.Inc(obs.CoordChange)
		reply = &message.Message{
			Type: message.TypeCoordChangeAck, TID: m.TID, OK: true,
			View: m.View, ReplicaID: uint32(c.r.cfg.Index),
			Records: []message.TRecordEntry{{
				Txn: rec.Txn, TS: rec.TS, Status: rec.Status,
				View: rec.View, AcceptView: rec.AcceptView, CoreID: c.id,
			}},
		}
	})
	c.send(m.Src, reply)
}

// handleEpochChange pauses the core and ships its trecord partition to the
// recovery coordinator (§5.3.1).
func (c *core) handleEpochChange(m *message.Message) {
	if m.Epoch < c.r.epoch.Load() || m.Epoch <= c.installed {
		return // stale: of an older epoch, or of one this core has finished — nobody would un-pause it
	}
	c.r.epoch.Store(m.Epoch)
	c.paused = true
	c.obs.Inc(obs.EpochChangePause)
	var snap []message.TRecordEntry
	c.withRecords(func(p *trecord.Partition) {
		snap = p.Snapshot(c.id)
	})
	// OK says the snapshot is this core's whole record. Before its first merge
	// a crash-recovered core's is not — what it promised before the crash is
	// gone — so its ack carries no evidence for the merge.
	c.send(m.Src, &message.Message{
		Type: message.TypeEpochChangeAck, Epoch: m.Epoch, OK: !c.r.recovering.Load() || c.recovered,
		Records: snap, ReplicaID: uint32(c.r.cfg.Index), CoreID: c.id,
	})
}

// handleEpochChangeComplete installs the merged trecord and resumes normal
// operation. Every entry in the merged trecord is final. A local non-final
// record the merge does not mention is kept (PROTOCOL.md, "Epoch change",
// step 4): a core whose snapshot went into the merge has none, and at any
// other the merge knows nothing about it — it may be newer than the merge.
func (c *core) handleEpochChangeComplete(m *message.Message) {
	if m.Epoch < c.r.epoch.Load() {
		return
	}
	ack := &message.Message{
		Type: message.TypeEpochChangeCompleteAck, Epoch: m.Epoch,
		ReplicaID: uint32(c.r.cfg.Index), CoreID: c.id,
	}
	if m.Epoch <= c.installed {
		c.send(m.Src, ack) // a resend whose first copy this core installed and resumed on
		return
	}
	c.r.epoch.Store(m.Epoch)
	m.Disown() // the records installed below keep the merged bodies
	c.withRecords(func(p *trecord.Partition) {
		for i := range m.Records {
			e := &m.Records[i]
			// In per-core mode install only this core's slice; in shared
			// mode the record table is replica-wide, so install all (the
			// finality guard makes repeats across cores idempotent).
			if c.part != nil && e.CoreID != c.id {
				continue
			}
			c.install(p, e)
		}
		if c.r.cfg.CompactOnEpochChange {
			p.Compact()
		}
	})
	// The merged trecord decided and applied every in-flight transaction
	// this core is responsible for; once every core has installed its
	// slice, a crash-recovered replica is caught up and its snapshot-read
	// bounds are trustworthy again.
	if c.r.recovering.Load() && !c.recovered {
		c.recovered = true
		if c.r.recoveryLeft.Add(-1) == 0 {
			c.r.recovering.Store(false)
		}
	}
	c.paused, c.installed = false, m.Epoch
	c.send(m.Src, ack)
}

// install merges one final entry from an epoch change into the record table
// and applies its effects.
func (c *core) install(p *trecord.Partition, e *message.TRecordEntry) {
	rec := p.Get(e.Txn.ID)
	if rec == nil {
		rec = &trecord.Record{
			Txn: e.Txn, TS: e.TS,
			View: e.View, AcceptView: e.AcceptView,
			CreatedAt: c.r.g.Now(),
		}
		p.Put(rec)
		c.finalize(rec, e.Status)
		return
	}
	if rec.Status.Final() {
		return
	}
	if rec.Txn.Empty() {
		rec.Txn = e.Txn
		rec.TS = e.TS
	}
	rec.View = e.View
	rec.AcceptView = e.AcceptView
	c.finalize(rec, e.Status)
}

// handleSweep scans for transactions whose coordinator appears to have
// failed — non-final records older than StaleAfter — and completes each via
// coordinator recovery (§5.3.2).
func (c *core) handleSweep() {
	if c.paused || c.r.recoverer == nil {
		return
	}
	now := c.r.g.Now()
	stale := int64(c.r.cfg.StaleAfter)
	found := 0
	c.withRecords(func(p *trecord.Partition) {
		p.Range(func(rec *trecord.Record) bool {
			if rec.Status.Final() || now-rec.CreatedAt < stale || now-rec.LastRecovery < stale {
				return true
			}
			select {
			case c.r.stale <- staleTxn{tid: rec.Txn.ID, core: c.id, view: rec.View}:
				rec.LastRecovery = now
				found++
				return true
			default:
				return false
			}
		})
	})
	c.obs.Add(obs.SweepRecovery, uint64(found))
}

// staleTxn names a transaction a sweep found stalled: its record on core, and
// the view that record has reached.
type staleTxn struct {
	tid  timestamp.TxnID
	core uint32
	view uint64
}

// recoverLoop completes the transactions the sweeps found, one at a time,
// until ctx ends, which also ends the recovery then in flight.
func (r *Replica) recoverLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-r.stale:
			r.recoverer.Recover(ctx, r.cfg.Partition, j.tid, j.core, j.view)
		}
	}
}
