// Package coordinator implements the Meerkat transaction coordinator
// (§5.1–§5.2): the execution phase (reads from any replica, buffered
// writes), the combined validation/replication phase with its supermajority
// fast path and Paxos-like slow path, and the write-phase commit broadcast.
//
// It also implements the consensus-based coordinator recovery procedure of
// §5.3.2, used both by backup coordinators on replicas (via the sweeper) and
// by an original coordinator whose slow-path proposal was superseded.
package coordinator

import (
	"errors"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// Errors returned by the commit protocol.
var (
	// ErrTimeout means the coordinator could not assemble the quorums it
	// needed within its retry budget; the transaction's outcome is
	// unknown (a backup coordinator will eventually finish it).
	ErrTimeout = drive.ErrTimeout
	// ErrWrongShard means a replica refused a request because, under its
	// current shard map, it no longer owns some of the keys — the client
	// routed with a stale map. The coordinator's map cache has already been
	// refreshed by the time callers see this error. Unlike ErrTimeout, a
	// commit that returns ErrWrongShard is a known abort: the partition
	// either refused before creating any record or was driven to an
	// authoritative outcome through coordinator recovery.
	ErrWrongShard = errors.New("coordinator: wrong shard, routing map is stale")
)

// Config parameterizes a coordinator.
type Config struct {
	Topo     topo.Topology
	ClientID uint64
	Net      transport.Network
	// Clock proposes the timestamps: the client's own, possibly skewed, view
	// of the time of day. What the coordinator waits on is Net's clock.
	Clock clock.Clock

	// Timeout bounds each wait for a quorum of replies before the request
	// is resent. Defaults to 100ms.
	Timeout time.Duration
	// Retries is how many times each request is resent before giving up.
	// Defaults to 10.
	Retries int
	// BackoffBase and BackoffMax bound the capped exponential backoff
	// inserted before each resend: attempt k sleeps a uniformly jittered
	// duration in (0, min(BackoffBase<<k, BackoffMax)]. Under injected
	// faults (drops, partitions, a crashed replica) the backoff keeps a
	// fleet of retrying clients from hammering the surviving replicas in
	// lockstep. Defaults: 500µs base, 50ms cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DisableFastPath forces every transaction through the slow path, an
	// ablation knob quantifying the fast path's round-trip saving.
	DisableFastPath bool
	// ShardMap routes each key to the replica group owning its hash range
	// under the cached cluster shard map. On a wrong-shard redirect the
	// coordinator refreshes the cache; Run re-routes and retries. Required.
	ShardMap *shardmap.Cache
	// Seed seeds core/replica load-balancing choices. Zero means seed
	// from ClientID.
	Seed int64
	// Obs, when non-nil, receives the coordinator's transaction lifecycle
	// events (fast/slow-path commits, aborts by reason, retries) and commit
	// latency. The coordinator is single-goroutine, so one private shard
	// per coordinator keeps recording coordination-free.
	Obs *obs.Shard
}

func (c *Config) fill() {
	if c.Timeout == 0 {
		c.Timeout = 100 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 10
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 500 * time.Microsecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 50 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = int64(c.ClientID + 1)
	}
}

// link is what a coordinator's rounds are driven over: the drive.Link their
// requests leave by and their replies arrive on, and the routing map the
// requests are stamped with.
type link struct {
	drive.Link
	// groups[p*cores+core] is the broadcast destination set for (p, core),
	// precomputed once so no round allocates it. Immutable once built; a
	// session's workers share one table.
	groups [][]message.Addr
	cores  int
	rng    transport.SplitMix64 // replica/core load balancing and Run's backoff jitter; no lock, no heap

	routes *shardmap.Cache // nil on a replica's recovery link, which routes nothing
	obs    *obs.Shard      // nil-safe lifecycle recorder (see Config.Obs)
	// rerouted latches that a wrong-shard redirect refreshed the shard-map
	// cache to a newer version, so Run's next retry can skip the backoff —
	// the re-routed attempt goes to a different replica group and cannot
	// re-collide with whatever aborted this one.
	rerouted bool
}

// group returns the broadcast addresses of core `core` on every replica of
// partition p.
func (l *link) group(p int, core uint32) []message.Addr {
	return l.groups[p*l.cores+int(core)]
}

// mapVersion is the shard-map version outgoing requests are stamped with, so
// replicas can tell how stale a redirected client is.
func (l *link) mapVersion() uint64 { return l.routes.Current().Version() }

// noteRedirect refreshes the shard-map cache after a wrong-shard reply and
// reports whether the refresh advanced to a newer map — in which case an
// immediate re-routed retry is worthwhile, and rerouted is latched for Run.
func (l *link) noteRedirect() bool {
	_, advanced := l.routes.Refresh()
	if advanced {
		l.obs.Inc(obs.MapRefresh)
		l.rerouted = true
	}
	return advanced
}

// policy is cfg's retry policy with a jitter stream of its own.
func (c *Config) policy(stream uint64) drive.Policy {
	return drive.Policy{
		Timeout: c.Timeout, Retries: c.Retries, BackoffBase: c.BackoffBase, BackoffMax: c.BackoffMax,
		Rng: transport.SeedSplitMix64(uint64(c.Seed) + stream),
	}
}

// Coordinator drives transactions for one client: it is a Session's worker
// (a plain client is a session of one). It is not safe for concurrent use:
// each closed-loop client owns one. Everything it does runs on the caller's
// goroutine; it starts none of its own.
type Coordinator struct {
	cfg Config
	gen *timestamp.Generator

	// The link's mailbox is the worker's own; its endpoint is the session's.
	link

	// Per-coordinator scratch, reused across operations (the coordinator is
	// single-goroutine by contract). None of it is ever placed into a sent
	// message — a read request copies its keys into the message's own array —
	// because the transport may deliver a message after the send times out
	// here, so the slices a message carries must never be written again.
	round    round     // the commit or recovery in progress: one quorum tally per touched partition
	reads    readRound // the read round in progress
	keyParts []int     // split: partition of each read, write and op
	ro1      [1]string // the key of a single-key read
	fetch    []string  // Txn.ReadMany: the keys that need the round trip

	// txn is the one transaction Run recycles across attempts and calls;
	// running marks a Run in progress, whose body must not lose it to a nested
	// Run. body is what commits ship instead of txn's working sets (see split).
	txn     Txn
	running bool
	body    message.Chunks

	// lastTS is the highest timestamp this coordinator has committed at, on
	// either path. Snapshot round-down never goes below it, so one session's
	// reads can never miss that session's own writes.
	lastTS timestamp.Timestamp
}

// partitionFor routes key to its partition through the shard-map cache. The
// cache read is one atomic pointer load and the range lookup a binary search
// over a few entries — no allocation, no lock.
func (c *Coordinator) partitionFor(key string) int {
	return c.cfg.ShardMap.Current().GroupForKey(key)
}

// groupTable precomputes every (partition, core) broadcast destination set.
func groupTable(t topo.Topology) [][]message.Addr {
	groups := make([][]message.Addr, 0, t.Partitions*t.Cores)
	for p := 0; p < t.Partitions; p++ {
		for core := 0; core < t.Cores; core++ {
			groups = append(groups, t.GroupAddrs(p, uint32(core)))
		}
	}
	return groups
}

// newCore builds a coordinator without an endpoint: a session's worker, which
// sends through the session's, to the groups of groupTable(cfg.Topo). cfg is
// already filled and validated.
func newCore(cfg Config, groups [][]message.Addr) *Coordinator {
	c := &Coordinator{cfg: cfg, gen: timestamp.NewGenerator(cfg.ClientID, cfg.Clock.Now)}
	c.link = link{
		Link:   drive.Link{Mailbox: drive.Mailbox{In: transport.NewInbox(inboxDepth(cfg.Topo)), Clock: cfg.Net.Clock()}},
		groups: groups, cores: cfg.Topo.Cores,
		rng:    transport.SeedSplitMix64(uint64(cfg.Seed)),
		routes: cfg.ShardMap, obs: cfg.Obs,
	}
	// Client proposer ids live in the upper half of the proposer space so
	// they cannot collide with replica indices.
	const half = 1 << (viewProposerBits - 1)
	c.round.init(&c.cfg, &c.link, cfg.ClientID%half+half)
	c.reads.init(&c.cfg, &c.link)
	c.txn.c = c
	return c
}

// inboxDepth sizes the mailbox: one operation's replies from every
// partition's group plus stragglers of retried attempts, with headroom.
func inboxDepth(t topo.Topology) int { return max(256, 8*t.Replicas*t.Partitions) }
