package meerkat

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/faultnet"
	"meerkat/internal/obs"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/wal"
)

// SyncPolicy selects when the durability layer fsyncs appended commit
// records; see internal/wal for the exact semantics of each policy.
type SyncPolicy = wal.SyncPolicy

// Re-exported sync policies, so callers configure durability without
// importing internal packages.
const (
	// SyncBatch groups fsyncs off the commit path (default).
	SyncBatch = wal.SyncBatch
	// SyncNone never fsyncs; survives process crashes only.
	SyncNone = wal.SyncNone
	// SyncAlways fsyncs inside every commit before it is applied.
	SyncAlways = wal.SyncAlways
)

// ParseSyncPolicy parses "none", "batch", or "always" (command-line flags).
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// Durability configures the optional persistence layer: one write-ahead log
// per replica core (the zero-coordination principle extended to disk — no
// shared log), group-commit fsync batching, periodic snapshots with log
// truncation, and crash-restart recovery that replays local state before
// fetching only the delta from a live replica. The zero value (empty
// DataDir) disables persistence entirely.
type Durability struct {
	// DataDir is the root directory for all replicas' logs and snapshots;
	// each replica uses the subdirectory "p<shard>-r<index>". Setting it
	// enables durability.
	DataDir string
	// Sync is the fsync policy: SyncBatch (default), SyncNone, SyncAlways.
	Sync SyncPolicy
	// GroupCommitInterval is the SyncBatch fsync cadence. Default 2ms.
	GroupCommitInterval time.Duration
	// SnapshotInterval is how often each replica snapshots its store and
	// truncates its logs. Default 30s; negative disables the periodic
	// snapshotter (logs grow until Snapshot is called another way).
	SnapshotInterval time.Duration
	// MaxLogSegment rotates a core's log file beyond this size; snapshot
	// truncation deletes whole segments. Default 64 MiB.
	MaxLogSegment int64
	// DeltaMargin is subtracted from the replayed-log watermark when a
	// recovering replica asks a donor for the post-crash delta, covering
	// commits that were applied out of timestamp order around the crash.
	// The default is derived from the protocol knobs that bound how long a
	// commit's finalization can trail its timestamp assignment (StaleAfter/
	// SweepInterval, CommitTimeout, Retries, BackoffMax, ClockSkew), with a
	// 10s floor. Donors additionally ship keys whose commit they applied
	// (wall clock) after the replica crashed, so even a finalization
	// exceeding the margin — a coordinator outage longer than the sweeper
	// bound — cannot silently strand stale keys. The epoch change that
	// follows recovery reconciles in-flight transactions regardless.
	DeltaMargin time.Duration
}

// Enabled reports whether durability is configured.
func (d *Durability) Enabled() bool { return d.DataDir != "" }

// replicaDir is the durability directory of one replica.
func (d *Durability) replicaDir(p, r int) string {
	return filepath.Join(d.DataDir, fmt.Sprintf("p%d-r%d", p, r))
}

// TransportKind selects the message fabric of a deployment.
type TransportKind int

const (
	// TransportInproc runs all replicas in this process over per-core
	// delivery queues — the kernel-bypass-class transport. Default.
	TransportInproc TransportKind = iota
	// TransportUDP runs all replicas in this process but exchanges every
	// message over real loopback UDP sockets, paying full serialization
	// and kernel costs (the paper's "traditional stack" regime).
	TransportUDP
)

// Config describes a deployment. The zero value is a usable 3-replica,
// 4-cores-per-replica, single-shard in-process deployment.
type Config struct {
	// Replicas per shard's replica group; must be odd. Default 3 (f=1).
	Replicas int
	// Cores is the number of server threads per replica. Default 4.
	Cores int

	// Shards and MaxShards split the keyspace across independent replica
	// groups (distributed transactions, §5.2.4): Shards groups initially own
	// the hash-range shard map, and MaxShards groups are provisioned in
	// total, the headroom Admin.Split grows into by moving half a shard's
	// range onto an idle group. Defaults: Shards 1, MaxShards = Shards.
	Shards    int
	MaxShards int

	// Transport selects the fabric. Default TransportInproc.
	Transport TransportKind
	// UDPHost/UDPBasePort place TransportUDP sockets. Defaults:
	// 127.0.0.1, 29000.
	UDPHost     string
	UDPBasePort int
	// UDPMaxClients is the client budget the UDP port map is validated
	// against: Validate fails with ErrPortMap if that many clients (plus
	// every replica, backup-coordinator and epoch-change address of the
	// plan in internal/topo) cannot fit the 16-bit port range.
	// Creating more clients than this is still caught, at DB.Client time,
	// by the transport's own typed port checks. Default 64.
	UDPMaxClients int

	// SharedTRecord replaces Meerkat's per-core transaction records with
	// one mutex-protected record per replica — the TAPIR-like baseline of
	// the paper's evaluation. For measurement, not production use.
	SharedTRecord bool
	// DisableFastPath forces all commits through the slow path (ablation).
	DisableFastPath bool

	// CommitTimeout bounds each protocol round-trip wait; Retries bounds
	// resends. Defaults: 100ms, 10.
	CommitTimeout time.Duration
	Retries       int

	// BackoffBase and BackoffMax bound the capped exponential backoff with
	// full jitter that clients insert before protocol resends and between
	// Client.Run attempts: attempt k waits a uniform duration in
	// (0, min(BackoffBase<<k, BackoffMax)]. Defaults: 500µs, 50ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Faults, when non-nil, wraps the cluster's transport in the
	// deterministic fault-injection layer (internal/faultnet) — the one
	// place message loss, delay, reordering and duplication are injected,
	// over either transport — running this schedule: per-link
	// drop/delay/reorder/duplicate rules, partitions, and crash/restart
	// black-holes triggered at global message counts.
	// Crash/restart events black-hole the node's traffic; pair them with
	// Admin.FaultEvents to also stop and recover the real replica. The
	// plan must pass its Validate; Open rejects the config otherwise.
	Faults *faultnet.Plan

	// SweepInterval enables replica-side coordinator-failure detection:
	// stalled transactions older than StaleAfter are finished by a backup
	// coordinator. Zero disables.
	SweepInterval time.Duration
	StaleAfter    time.Duration

	// CompactOnEpochChange trims finalized transaction records whenever an
	// epoch change runs (checkpointing, §5.3.1).
	CompactOnEpochChange bool

	// ClockSkew, if set, gives client i a static clock offset of
	// (i - clients/2) * ClockSkew, exercising the loose-synchronization
	// tolerance. Correctness never depends on it.
	ClockSkew time.Duration

	// Durability, when its DataDir is set, persists every replica's
	// committed state: per-core write-ahead logs with the configured
	// SyncPolicy, periodic snapshots, and crash-restart recovery
	// (local replay first, then a delta state transfer).
	Durability Durability

	// Seed makes load-balancing decisions reproducible.
	Seed int64

	// Obs, when non-nil, is the observability registry the deployment wires
	// through every component (replica cores, client coordinators, epoch
	// changes, transport and storage gauges). When nil, Open creates one;
	// retrieve it with Admin.Obs.
	Obs *obs.Registry

	// clock, when non-nil, replaces the machine's clock as the deployment's:
	// this package's tests run a deployment on a clock.Manual.
	clock clock.Clock
}

// Validate checks the configuration and normalizes it in place, applying the
// documented defaults to zero-valued fields:
//
//	Replicas 3 (must be odd), Cores 4, Shards 1, MaxShards = Shards,
//	Transport inproc (UDPHost 127.0.0.1, UDPBasePort 29000 when UDP),
//	CommitTimeout 100ms, Retries 10, BackoffBase 500µs, BackoffMax 50ms,
//	and, with Durability.DataDir set: Sync batch, GroupCommitInterval 2ms,
//	SnapshotInterval 30s, MaxLogSegment 64MiB, DeltaMargin derived from the
//	protocol knobs (see deriveDeltaMargin; 10s with the other defaults).
//
// It rejects negative knobs, even replica counts, MaxShards below Shards,
// out-of-range fault probabilities, and malformed fault plans. Open calls it,
// so explicit calls are needed only to validate a config without starting a
// deployment.
func (c *Config) Validate() error {
	if c.Replicas < 0 || c.Cores < 0 || c.Retries < 0 || c.Shards < 0 || c.MaxShards < 0 {
		return fmt.Errorf("meerkat: negative size in config %+v", *c)
	}
	if c.CommitTimeout < 0 || c.BackoffBase < 0 || c.BackoffMax < 0 ||
		c.SweepInterval < 0 || c.StaleAfter < 0 {
		return errors.New("meerkat: negative duration in config")
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.MaxShards == 0 {
		c.MaxShards = c.Shards
	}
	if c.MaxShards < c.Shards {
		return fmt.Errorf("meerkat: MaxShards %d below Shards %d", c.MaxShards, c.Shards)
	}
	if c.Replicas%2 == 0 {
		return fmt.Errorf("meerkat: Replicas must be odd, got %d", c.Replicas)
	}
	if c.UDPHost == "" {
		c.UDPHost = "127.0.0.1"
	}
	if c.UDPBasePort == 0 {
		c.UDPBasePort = 29000
	}
	if c.UDPMaxClients == 0 {
		c.UDPMaxClients = 64
	}
	if c.Transport == TransportUDP {
		// Statically check the port map before anything binds: the plan's
		// node ranges must stay apart, every node's endpoints — a replica's
		// backup coordinator included — must fit the stride, and the highest
		// client address must fit 16 bits. The throwaway network only does
		// arithmetic here; no socket is created.
		if err := c.newUDP().ValidatePortMap(c.topology(), c.UDPMaxClients); err != nil {
			return fmt.Errorf("%w: %w", ErrPortMap, err)
		}
	}
	if c.CommitTimeout == 0 {
		c.CommitTimeout = 100 * time.Millisecond
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
	if c.BackoffMax < c.BackoffBase {
		return fmt.Errorf("meerkat: BackoffMax %v below BackoffBase %v", c.BackoffMax, c.BackoffBase)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Durability.validate(); err != nil {
		return err
	}
	if c.Durability.Enabled() && c.Durability.DeltaMargin == 0 {
		c.Durability.DeltaMargin = c.deriveDeltaMargin()
	}
	return nil
}

// validate checks and normalizes the durability options. Without a DataDir
// it only rejects nonsensical values (so a half-filled config fails fast).
func (d *Durability) validate() error {
	if d.GroupCommitInterval < 0 || d.DeltaMargin < 0 {
		return errors.New("meerkat: negative duration in Durability config")
	}
	if d.MaxLogSegment < 0 {
		return fmt.Errorf("meerkat: negative Durability.MaxLogSegment %d", d.MaxLogSegment)
	}
	if d.Sync != SyncBatch && d.Sync != SyncNone && d.Sync != SyncAlways {
		return fmt.Errorf("meerkat: unknown Durability.Sync policy %d", d.Sync)
	}
	if !d.Enabled() {
		return nil
	}
	if d.GroupCommitInterval == 0 {
		d.GroupCommitInterval = 2 * time.Millisecond
	}
	if d.SnapshotInterval == 0 {
		d.SnapshotInterval = 30 * time.Second
	}
	if d.MaxLogSegment == 0 {
		d.MaxLogSegment = 64 << 20
	}
	// DeltaMargin's default is derived from protocol knobs the Durability
	// struct cannot see; Config.Validate fills it after calling this.
	return nil
}

// deriveDeltaMargin bounds how long a commit's finalization can trail its
// timestamp assignment on a healthy group, so the recovering replica's
// TS-delta filter cannot miss it: the sweeper declares a coordinator dead
// after StaleAfter (default 5x SweepInterval), the original coordinator may
// have retried for (Retries+1) timeouts with backoff before that, recovery
// itself runs more rounds, and client clocks may disagree by ClockSkew. The
// sum is padded generously — the margin only sizes a state-transfer delta,
// so over-estimating costs bytes, never correctness — and floored at the
// long-standing 10s default, which already covers configs without a sweeper.
func (c *Config) deriveDeltaMargin() time.Duration {
	staleAfter := c.StaleAfter
	if staleAfter == 0 && c.SweepInterval > 0 {
		staleAfter = 5 * c.SweepInterval
	}
	skew := c.ClockSkew
	if skew < 0 {
		skew = -skew
	}
	m := 2*staleAfter +
		time.Duration(c.Retries+1)*c.CommitTimeout +
		time.Duration(c.Retries)*c.BackoffMax +
		30*c.CommitTimeout + // recovery rounds initiated by backup coordinators
		16*skew
	if m < 10*time.Second {
		m = 10 * time.Second
	}
	return m
}

// topology is the deployment a normalized config describes.
func (c *Config) topology() topo.Topology {
	return topo.Topology{Partitions: c.MaxShards, Replicas: c.Replicas, Cores: c.Cores}
}

// newUDP returns the UDP fabric of a normalized config, its port stride the
// address plan's.
func (c *Config) newUDP() *transport.UDP {
	return transport.NewUDP(c.UDPHost, c.UDPBasePort, c.topology().EndpointsPerNode())
}
