package meerkat

import (
	"fmt"
	"slices"

	"meerkat/internal/faultnet"
	"meerkat/internal/obs"
	"meerkat/internal/replica"
	"meerkat/internal/shardmap"
	"meerkat/internal/wal"
)

// Admin is the DB's administrative facade: shard-map introspection, online
// resharding, and the deployment-level controls — fault injection, replica
// lifecycle (replicas.go), metrics. Obtain it with DB.Admin.
type Admin struct {
	db *DB
}

// ShardMap returns the current authoritative shard map (immutable; never
// nil). Its version increases by one per completed Split.
func (a *Admin) ShardMap() *shardmap.Map { return a.db.source.Current() }

// Shards reports how many groups currently own a range and how many are
// provisioned in total (the Split headroom).
func (a *Admin) Shards() (owned, provisioned int) {
	return len(a.db.source.Current().Groups()), len(a.db.own)
}

// Split moves the upper half of shard src's widest hash range onto an idle
// provisioned group, live, and returns the new owner. The migration uses the
// epoch change as its fence:
//
//  1. Seal: src's replicas install the successor map and start redirecting
//     the moved range. New transactions on moved keys abort with a redirect.
//  2. Fence: an epoch change on src pauses the group, merges its transaction
//     records, and finalizes every in-flight transaction — after it, the
//     moved range's committed state is complete and frozen on src's live
//     replicas (reads can no longer raise it either; sealed replicas reject
//     reads too).
//  3. Migrate: the union of the moved range's committed state across src's
//     live replicas (max-timestamp per key — imports are monotone, so the
//     union is safe) is installed on dst's live replicas. Read timestamps
//     move with the data, so a read serialized before the split stays
//     serialized after it.
//  4. Open: dst's replicas install the successor map and begin serving the
//     range.
//  5. Publish: the map is persisted (durable clusters), then published;
//     client caches refresh on their next redirect.
//
// Split is safe to retry after a mid-sequence failure: re-running it from
// the same source map recomputes the same successor version, and installs,
// imports, and publishes are all idempotent and monotone. While a failed
// split is un-retried the moved range is sealed but unowned — transactions
// touching it abort with ErrWrongShard until a retry completes the handoff.
//
// Concurrent Splits serialize; routing and running transactions never block
// on one (only transactions touching the moved range are affected).
func (a *Admin) Split(src int) (dst int, err error) {
	db := a.db
	db.splitMu.Lock()
	defer db.splitMu.Unlock()

	cur := db.source.Current()
	if src < 0 || src >= len(db.own) {
		return -1, fmt.Errorf("meerkat: split source %d out of range [0,%d)", src, len(db.own))
	}
	owned := make(map[int]bool)
	for _, g := range cur.Groups() {
		owned[g] = true
	}
	dst = -1
	for p := 0; p < len(db.own); p++ {
		if !owned[p] {
			dst = p
			break
		}
	}
	if dst < 0 {
		return -1, errNoIdleShard
	}
	next, lo, hi, err := cur.Split(src, dst)
	if err != nil {
		return -1, err
	}

	// 1. Seal. From here on src's replicas redirect the moved range; the
	// install is monotone, so a crash-and-retry cannot roll it back.
	db.own[src].Install(next)

	// 2. Fence. The epoch change finalizes every transaction in flight on
	// src — including ones that validated the moved range before the seal —
	// so after it the range's committed state is complete.
	if err := a.EpochChange(src); err != nil {
		return -1, fmt.Errorf("meerkat: split fence (epoch change on shard %d): %w", src, err)
	}

	// 3. Migrate the moved range's committed state.
	if err := db.migrate(src, dst, lo, hi); err != nil {
		return -1, err
	}

	// 4. Open the range on its new owner.
	db.own[dst].Install(next)

	// 5. Durable before visible: persist the map, then publish it. A crash
	// between the two re-runs the split idempotently on restart (the
	// persisted map already names dst as owner; Open rebuilds views from it).
	if db.mapPath != "" {
		if err := next.Save(db.mapPath); err != nil {
			return -1, fmt.Errorf("meerkat: persisting shard map after split: %w", err)
		}
	}
	db.source.Publish(next)
	return dst, nil
}

// migrate copies the committed state of the hash range [lo, hi) from every
// live replica of shard src into every live replica of shard dst. It runs
// after the fence, so the range is frozen; imports are monotone (Thomas rule
// for versions, max for rts), so each destination ends with the union of the
// sources, which covers replicas that individually missed an apply. Read
// timestamps travel with their keys, even keys never written: without them
// the new owner could validate a write below a read it never saw. A durable
// destination then snapshots, so the moved state is on its disk before the
// range opens there.
func (db *DB) migrate(src, dst int, lo, hi uint32) error {
	db.mu.Lock()
	srcReps := slices.DeleteFunc(slices.Clone(db.replicas[src]), isNil)
	dstReps := slices.DeleteFunc(slices.Clone(db.replicas[dst]), isNil)
	db.mu.Unlock()
	if len(srcReps) == 0 {
		return fmt.Errorf("meerkat: shard %d has no live replica to migrate from", src)
	}
	if len(dstReps) == 0 {
		return fmt.Errorf("meerkat: shard %d has no live replica to migrate to", dst)
	}
	inRange := func(key string) bool { return shardmap.InRange(shardmap.Hash(key), lo, hi) }
	for _, to := range dstReps {
		for _, from := range srcReps {
			copyState(to.Store(), from.Store(), inRange)
		}
		if w := to.WAL(); w != nil {
			if err := w.Snapshot(to.Store()); err != nil {
				return fmt.Errorf("meerkat: snapshot of shard %d after migration: %w", dst, err)
			}
		}
	}
	return nil
}

func isNil(rep *replica.Replica) bool { return rep == nil }

// Obs returns the observability registry shared by every component of the
// deployment. Snapshot it for programmatic metrics, or serve it over HTTP
// with obs.Handler / obs.Serve.
func (a *Admin) Obs() *obs.Registry { return a.db.obs }

// storeCounts sums keys and committed versions across all live replica
// stores. Scrape path only.
func (db *DB) storeCounts() (keys, versions uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, group := range db.replicas {
		for _, rep := range group {
			if rep == nil {
				continue
			}
			k, v := rep.Store().Counts()
			keys += k
			versions += v
		}
	}
	return
}

// storeOpStats sums commutative-op merge counters across all live replica
// stores. Scrape path only.
func (db *DB) storeOpStats() (merged, recovered uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, group := range db.replicas {
		for _, rep := range group {
			if rep == nil {
				continue
			}
			m, r := rep.Store().OpStats()
			merged += m
			recovered += r
		}
	}
	return
}

// NetworkStats reports transport counters (inproc transport only).
func (a *Admin) NetworkStats() (sent, delivered, dropped uint64) {
	if a.db.inet == nil {
		return
	}
	s := a.db.inet.Stats()
	return s.Sent, s.Delivered, s.Dropped
}

// UDPNetStats is a point-in-time aggregate of the UDP transport's
// socket-level counters. The syscall counters are what the batched transport
// amortizes: datagrams moved per send syscall is Sent/SendSyscalls.
type UDPNetStats struct {
	Sent         uint64 // datagrams handed to the kernel
	Delivered    uint64 // datagrams decoded and delivered
	Dropped      uint64 // local send errors + corrupt inbound datagrams
	SendSyscalls uint64 // sendmmsg/sendto calls
	RecvSyscalls uint64 // recvmmsg/recvfrom calls
}

// Syscalls returns total socket syscalls issued.
func (s UDPNetStats) Syscalls() uint64 { return s.SendSyscalls + s.RecvSyscalls }

// WALStats aggregates durability counters (record appends, fsyncs, bytes,
// segment rotations) across all live replicas; ok is false when durability
// is disabled. Fsyncs per committed transaction in a benchmark window is
// Syncs / committed count.
func (a *Admin) WALStats() (s wal.Stats, ok bool) {
	if !a.db.cfg.Durability.Enabled() {
		return s, false
	}
	a.db.mu.Lock()
	defer a.db.mu.Unlock()
	for _, group := range a.db.replicas {
		for _, rep := range group {
			if rep == nil || rep.WAL() == nil {
				continue
			}
			st := rep.WAL().Stats()
			s.Appends += st.Appends
			s.Syncs += st.Syncs
			s.BytesWritten += st.BytesWritten
			s.Segments += st.Segments
			s.Failures += st.Failures
		}
	}
	return s, true
}

// UDPStats reports socket-level counters; ok is false unless the deployment
// runs on TransportUDP. Counters survive DB.Close, so post-run scrapes stay
// truthful.
func (a *Admin) UDPStats() (s UDPNetStats, ok bool) {
	if a.db.unet == nil {
		return s, false
	}
	t := a.db.unet.Stats()
	return UDPNetStats{
		Sent:         t.Sent,
		Delivered:    t.Delivered,
		Dropped:      t.Dropped,
		SendSyscalls: t.SendCalls,
		RecvSyscalls: t.RecvCalls,
	}, true
}

// NodeOf maps (shard, replica index) to the transport node id — the id
// space fault plans (Config.Faults) address crashes, partitions, and link
// rules in.
func (a *Admin) NodeOf(p, r int) uint32 { return a.db.topo.ReplicaNode(p, r) }

// ReplicaOf inverts NodeOf: the (shard, replica index) behind a
// transport node id, for harnesses mapping fault events onto replica
// lifecycle calls. ok is false for ids that are not replica nodes.
func (a *Admin) ReplicaOf(node uint32) (p, r int, ok bool) {
	for p = 0; p < a.db.cfg.MaxShards; p++ {
		for r = 0; r < a.db.cfg.Replicas; r++ {
			if a.db.topo.ReplicaNode(p, r) == node {
				return p, r, true
			}
		}
	}
	return 0, 0, false
}

// FaultNetwork returns the fault-injection layer, or nil when the deployment
// runs without one (Config.Faults == nil).
func (a *Admin) FaultNetwork() *faultnet.Network { return a.db.fnet }

// FaultEvents returns the channel carrying fired fault events, in firing
// order, or nil without a fault plan. A chaos harness consumes it to mirror
// OpCrash/OpRestart black-holes onto the real replica lifecycle
// (CrashReplica / RecoverReplica).
func (a *Admin) FaultEvents() <-chan faultnet.Event {
	if a.db.fnet == nil {
		return nil
	}
	return a.db.fnet.Events()
}
