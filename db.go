package meerkat

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"meerkat/internal/clock"
	"meerkat/internal/faultnet"
	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/replica"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
	"meerkat/internal/wal"
)

// DB is a running Meerkat deployment: Config.MaxShards independent replica
// groups of Config.Replicas nodes each behind a versioned hash-range shard
// map, plus the transport fabric connecting them to clients. Clients obtained
// from DB.Client / DB.Session route every key locally against a cached copy
// of the map and follow shard splits automatically (a redirect refreshes the
// cache and retries); the single-shard fast path is exactly the unsharded
// protocol, so a one-shard DB pays nothing for the map.
//
// Open builds a DB; Admin exposes introspection, online resharding
// (Admin.Split), fault injection and replica lifecycle.
type DB struct {
	cfg  Config
	topo topo.Topology
	// clk is the deployment's one clock: every wait, tick, record age and
	// apply stamp under Open reads it — through net, which carries it, or
	// through the WAL options and the stores built from it.
	clk  clock.Clock
	net  transport.Network
	inet *transport.Inproc // non-nil iff inproc transport
	unet *transport.UDP    // non-nil iff UDP transport
	fnet *faultnet.Network // non-nil iff cfg.Faults was set

	obs      *obs.Registry  // never nil after Open
	recObs   *obs.Shard     // epoch-change recorder
	walSched *wal.Scheduler // shared group-commit driver (durable deployments)

	source *shardmap.Source
	// own is the per-group ownership view shared between a group's replicas:
	// each replica checks incoming keys against its group's current view and
	// redirects what it does not own. The array outlives any individual
	// replica, so crash-recovered replicas rejoin with the group's current
	// (possibly post-split) view.
	own   []*shardmap.Ownership
	admin *Admin

	// mapPath persists the shard map across restarts (durable deployments
	// only); "" disables persistence.
	mapPath string

	// splitMu serializes Admin.Split; routing never takes it.
	splitMu sync.Mutex

	mu        sync.Mutex
	replicas  [][]*replica.Replica // [shard][index]
	epochs    []uint64             // per-shard epoch counters
	crashedAt map[[2]int]int64     // clk's reading at each CrashReplica
	nextCli   uint64
	closed    bool
}

// Open starts a deployment per cfg: Config.Shards replica groups own the
// initial shard map and Config.MaxShards groups are provisioned in total (the
// headroom Admin.Split grows into). With durability enabled the shard map
// itself persists (DataDir/shardmap.json), so a restarted deployment comes
// back with its post-split ownership intact.
func Open(cfg Config) (*DB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := cfg.topology()
	if !t.Validate() {
		return nil, fmt.Errorf("meerkat: invalid configuration %+v", cfg)
	}

	var m *shardmap.Map
	mapPath := ""
	if cfg.Durability.Enabled() {
		mapPath = filepath.Join(cfg.Durability.DataDir, "shardmap.json")
		pm, err := shardmap.LoadFile(mapPath)
		if err != nil {
			return nil, fmt.Errorf("meerkat: loading persisted shard map: %w", err)
		}
		m = pm
	}
	if m == nil {
		m = shardmap.New(cfg.Shards)
	} else {
		for _, g := range m.Groups() {
			if g >= cfg.MaxShards {
				return nil, fmt.Errorf("meerkat: persisted shard map (version %d) references group %d beyond MaxShards %d", m.Version(), g, cfg.MaxShards)
			}
		}
	}

	db := &DB{
		cfg: cfg, topo: t, clk: clock.Or(cfg.clock),
		source:    shardmap.NewSource(m),
		mapPath:   mapPath,
		epochs:    make([]uint64, cfg.MaxShards),
		crashedAt: make(map[[2]int]int64),
	}
	db.admin = &Admin{db: db}
	// Every provisioned group gets an ownership view — including groups that
	// own no range yet; they redirect everything until a split assigns them
	// one.
	db.own = make([]*shardmap.Ownership, cfg.MaxShards)
	for p := range db.own {
		db.own[p] = shardmap.NewOwnership(m, p)
	}
	db.obs = cfg.Obs
	if db.obs == nil {
		db.obs = obs.NewRegistry()
	}
	db.recObs = db.obs.NewShard()
	switch cfg.Transport {
	case TransportInproc:
		db.inet = transport.NewInproc(transport.InprocConfig{Clock: db.clk})
		db.inet.RegisterObs(db.obs)
		db.net = db.inet
	case TransportUDP:
		db.unet = cfg.newUDP()
		db.unet.SetClock(db.clk)
		db.unet.RegisterObs(db.obs)
		db.net = db.unet
	default:
		return nil, fmt.Errorf("meerkat: unknown transport %d", cfg.Transport)
	}
	if cfg.Faults != nil {
		// The injector wraps the fabric: every send — replica and client
		// alike — passes through the fault schedule. Validate() already
		// vetted the plan, so Wrap cannot panic here.
		db.fnet = faultnet.Wrap(db.net, cfg.Faults)
		db.fnet.RegisterObs(db.obs)
		db.net = db.fnet
	}
	// Storage gauges sum over all live replica stores (each replica holds a
	// full copy, so totals scale with the replication factor by design).
	db.obs.RegisterGauge("vstore_keys", func() uint64 { k, _ := db.storeCounts(); return k })
	db.obs.RegisterGauge("vstore_versions", func() uint64 { _, v := db.storeCounts(); return v })
	db.obs.RegisterGauge("vstore_ops_merged", func() uint64 { m, _ := db.storeOpStats(); return m })
	db.obs.RegisterGauge("vstore_ops_recovered", func() uint64 { _, r := db.storeOpStats(); return r })

	if cfg.Durability.Enabled() {
		db.walSched = wal.NewScheduler(cfg.Durability.GroupCommitInterval, db.clk)
	}
	for p := 0; p < cfg.MaxShards; p++ {
		group, err := db.startGroup(p)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.replicas = append(db.replicas, group)
	}
	if mapPath != "" && m.Version() == 1 {
		// Persist the initial map so a restart after splits-then-crash can
		// distinguish "fresh" from "file lost". Best-effort: a failure here
		// only costs the persisted default, which Open reconstructs anyway.
		m.Save(mapPath)
	}
	return db, nil
}

// startGroup opens (durable deployments) and starts every replica of shard p.
// On error nothing it opened is left running.
func (db *DB) startGroup(p int) ([]*replica.Replica, error) {
	cfg := &db.cfg
	group := make([]*replica.Replica, cfg.Replicas)
	stores := make([]*vstore.Store, cfg.Replicas)
	wals := make([]*wal.Store, cfg.Replicas)
	if cfg.Durability.Enabled() {
		// Open (or create) every replica's durability directory and
		// replay whatever it holds: a whole-deployment restart comes back
		// with every committed transaction.
		replayed := false
		for r := 0; r < cfg.Replicas; r++ {
			w, recov, err := wal.Open(cfg.Durability.replicaDir(p, r), cfg.Cores, db.walOptions())
			if err != nil {
				for i := 0; i < r; i++ {
					wals[i].Close()
				}
				return nil, err
			}
			wals[r] = w
			stores[r] = recov.Store
			replayed = replayed || recov.Records > 0 || recov.SnapshotKeys > 0
		}
		if replayed {
			// Reconcile the group before serving traffic. After a
			// non-graceful whole-cluster crash under SyncBatch each
			// replica lost a different unfsynced log suffix, so the
			// replayed stores diverge: an acknowledged write may exist
			// on one replica and not another, and single-replica reads
			// would return inconsistent values. The union merge is
			// sound because imports are idempotent and monotone (Thomas
			// rule for versions, max for rts): fold every store into
			// the first, then fan the union back out. A key that was only
			// read moves too: its rts may survive on one replica alone.
			for r := 1; r < cfg.Replicas; r++ {
				copyState(stores[0], stores[r], nil)
			}
			for r := 1; r < cfg.Replicas; r++ {
				copyState(stores[r], stores[0], nil)
			}
			// Make the reconciled state durable: keys merged from peers
			// exist only in memory until a snapshot covers them, and a
			// later lone crash would lose them again. Best-effort — on
			// failure the logs simply keep growing and the periodic
			// snapshotter retries.
			for r := 0; r < cfg.Replicas; r++ {
				wals[r].Snapshot(stores[r])
			}
		}
	}
	for r := 0; r < cfg.Replicas; r++ {
		rep, err := db.newReplica(p, r, stores[r], wals[r], false)
		if err != nil {
			for i := r; i < cfg.Replicas; i++ {
				if wals[i] != nil {
					wals[i].Close()
				}
			}
			for i := 0; i < r; i++ {
				group[i].Stop()
			}
			return nil, err
		}
		group[r] = rep
	}
	return group, nil
}

// copyState imports src's committed state into dst shard by shard: every
// key, or only the keys keep admits. Imports are idempotent and monotone, so
// copying several stores into one leaves their union.
func copyState(dst, src *vstore.Store, keep func(key string) bool) {
	for i := 0; i < src.NumShards(); i++ {
		states := src.ExportShard(i)
		if keep != nil {
			states = slices.DeleteFunc(states, func(ks message.KeyState) bool { return !keep(ks.Key) })
		}
		dst.ImportState(states)
	}
}

// replicaConfig is replica r of shard p as the deployment configures it.
func (db *DB) replicaConfig(p, r int, store *vstore.Store, w *wal.Store, recovering bool) replica.Config {
	return replica.Config{
		Topo:                 db.topo,
		Partition:            p,
		Index:                r,
		Net:                  db.net,
		Store:                store,
		WAL:                  w,
		Ownership:            db.own[p],
		SharedRecord:         db.cfg.SharedTRecord,
		SweepInterval:        db.cfg.SweepInterval,
		StaleAfter:           db.cfg.StaleAfter,
		Policy:               db.policy(),
		CompactOnEpochChange: db.cfg.CompactOnEpochChange,
		Obs:                  db.obs,
		Recovering:           recovering,
	}
}

// walOptions translates the validated config into internal/wal options. Every
// replica the process hosts shares the one group-commit scheduler, so their
// per-core log fsyncs coalesce into (almost) one journal commit per tick
// instead of replicas×cores — and the deployment's one clock.
func (db *DB) walOptions() wal.Options {
	d := &db.cfg.Durability
	return wal.Options{
		Sync:                d.Sync,
		GroupCommitInterval: d.GroupCommitInterval,
		SnapshotInterval:    d.SnapshotInterval,
		MaxSegmentBytes:     d.MaxLogSegment,
		Scheduler:           db.walSched,
		Clock:               db.clk,
	}
}

func (db *DB) newReplica(p, r int, store *vstore.Store, w *wal.Store, recovering bool) (*replica.Replica, error) {
	rep, err := replica.New(db.replicaConfig(p, r, store, w, recovering))
	if err != nil {
		return nil, err
	}
	if err := rep.Start(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Load installs key=value on every replica of the key's owning shard,
// bypassing the transaction protocol. Use it to pre-load a database before
// serving traffic. With durability enabled the load is logged, so preloaded
// data survives restarts like committed writes do.
func (db *DB) Load(key string, value []byte) {
	p := db.source.Current().GroupForKey(key)
	ts := timestamp.Timestamp{Time: 1, ClientID: 0}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, rep := range db.replicas[p] {
		if rep != nil {
			rep.Load(key, value, ts)
		}
	}
}

// Admin returns the DB's administrative facade: shard-map introspection,
// online resharding, fault injection, per-shard lifecycle, and metrics.
func (db *DB) Admin() *Admin { return db.admin }

// Close shuts the deployment down. With durability enabled it first drains
// each shard with an epoch change — the merge finalizes every transaction the
// group had acknowledged but not yet applied, writing it to the logs — and
// then stops every replica gracefully, which flushes and fsyncs all core
// logs. A durable deployment closed this way reopens with zero committed-
// transaction loss. The shard map was persisted at each split, so no map
// state is lost either.
func (db *DB) Close() {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	db.closed = true
	reps := db.replicas
	db.mu.Unlock()
	if db.cfg.Durability.Enabled() {
		for p := range reps {
			// Best-effort: without a quorum (mid-chaos shutdown) in-flight
			// transactions stay in-flight; committed state is already logged.
			db.admin.EpochChange(p)
		}
	}
	for _, group := range reps {
		for _, rep := range group {
			if rep != nil {
				rep.Stop()
			}
		}
	}
	db.net.Close()
	if db.walSched != nil {
		// Replica stops flushed and closed every log; the shared group-commit
		// driver has no registrants left and can retire.
		db.walSched.Stop()
	}
}

// errNoIdleShard is returned by Admin.Split when every provisioned group
// already owns a range.
var errNoIdleShard = errors.New("meerkat: no idle shard group to split into; raise MaxShards")
