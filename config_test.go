package meerkat

import (
	"errors"
	"testing"
	"time"

	"meerkat/internal/coordinator"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 3 || cfg.Cores != 4 || cfg.Shards != 1 {
		t.Fatalf("defaults %+v", cfg)
	}
	if cfg.CommitTimeout != 100*time.Millisecond || cfg.Retries != 10 {
		t.Fatalf("timeout defaults %+v", cfg)
	}
	if cfg.UDPHost != "127.0.0.1" || cfg.UDPBasePort != 29000 {
		t.Fatalf("udp defaults %+v", cfg)
	}
}

func TestUnknownTransportRejected(t *testing.T) {
	if _, err := Open(Config{Transport: TransportKind(42)}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestFiveReplicaCluster(t *testing.T) {
	c := newTestDB(t, Config{Replicas: 5, Cores: 1})
	cl := newDBClient(t, c)
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.GetStrong("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("got %q, %v", v, err)
	}
}

func TestSingleReplicaCluster(t *testing.T) {
	// n=1, f=0: both quorums are 1; the system degenerates to a
	// single-node store and must still work.
	c := newTestDB(t, Config{Replicas: 1, Cores: 2})
	cl := newDBClient(t, c)
	if err := cl.Put("k", []byte("solo")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.GetStrong("k")
	if err != nil || string(v) != "solo" {
		t.Fatalf("got %q, %v", v, err)
	}
}

func TestNetworkStats(t *testing.T) {
	c := newTestDB(t, Config{})
	cl := newDBClient(t, c)
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sent, delivered, _ := c.Admin().NetworkStats()
	if sent == 0 || delivered == 0 {
		t.Fatalf("stats sent=%d delivered=%d", sent, delivered)
	}
}

func TestClientAfterClusterClose(t *testing.T) {
	c, err := Open(Config{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Client(); err == nil {
		t.Fatal("Client on closed DB succeeded")
	}
	c.Close() // double close is safe
}

func TestRecoverNonCrashedReplicaRejected(t *testing.T) {
	c := newTestDB(t, Config{})
	if err := c.Admin().RecoverReplica(0, 1); err == nil {
		t.Fatal("recovering a live replica succeeded")
	}
}

func TestDropConfigStillCommits(t *testing.T) {
	c := newTestDB(t, Config{
		Faults:        lossy(5, 0.05),
		Seed:          5,
		CommitTimeout: 20 * time.Millisecond,
		Retries:       30,
	})
	cl := newDBClient(t, c)
	for i := 0; i < 10; i++ {
		if err := cl.Put("k", []byte("v")); err != nil {
			t.Fatalf("put %d under loss: %v", i, err)
		}
	}
}

func TestDurabilityConfigDefaults(t *testing.T) {
	cfg := Config{Durability: Durability{DataDir: t.TempDir()}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := cfg.Durability
	if d.Sync != SyncBatch || d.GroupCommitInterval != 2*time.Millisecond ||
		d.SnapshotInterval != 30*time.Second || d.MaxLogSegment != 64<<20 ||
		d.DeltaMargin != 10*time.Second {
		t.Fatalf("durability defaults %+v", d)
	}

	// Without a DataDir no defaults are applied (durability stays off) but
	// nonsense is still rejected.
	cfg = Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Durability.Enabled() || cfg.Durability.SnapshotInterval != 0 {
		t.Fatalf("disabled durability was normalized: %+v", cfg.Durability)
	}
}

func TestDurabilityConfigRejected(t *testing.T) {
	bad := []Config{
		{Durability: Durability{DataDir: "x", GroupCommitInterval: -1}},
		{Durability: Durability{DataDir: "x", DeltaMargin: -1}},
		{Durability: Durability{DataDir: "x", MaxLogSegment: -1}},
		{Durability: Durability{DataDir: "x", Sync: SyncPolicy(9)}},
		{Durability: Durability{Sync: SyncPolicy(9)}}, // even with durability off
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad durability config %d accepted: %+v", i, cfg.Durability)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"none", SyncNone}, {"batch", SyncBatch}, {"always", SyncAlways}, {"", SyncBatch}, {"ALWAYS", SyncAlways}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus sync policy accepted")
	}
}

// TestValidateSuiteDeployments (ROADMAP 6(d)): Validate accepts and
// normalizes the four deployments the standing benchmark opens
// (benchmark/workloads.go, workload.config), and rejects the nearest nonsense
// neighbour of each.
func TestValidateSuiteDeployments(t *testing.T) {
	suite := func(shards int, tr TransportKind, d Durability) Config {
		return Config{Replicas: 3, Cores: 2, Shards: shards, Transport: tr, UDPBasePort: 20000, Seed: 1, Durability: d}
	}
	wal := Durability{DataDir: t.TempDir(), Sync: SyncBatch, GroupCommitInterval: 2 * time.Millisecond, SnapshotInterval: 5 * time.Second}
	for _, tc := range []struct {
		name     string
		cfg      Config
		nonsense func(*Config)
		wantErr  error // what the neighbour's rejection unwraps to, if a sentinel
	}{
		{name: "retwis", cfg: suite(1, TransportInproc, Durability{}),
			nonsense: func(c *Config) { c.Replicas = 2 }},
		{name: "retwis-udp", cfg: suite(1, TransportUDP, Durability{}),
			nonsense: func(c *Config) { c.UDPBasePort = 65000 }, wantErr: ErrPortMap},
		{name: "ycsbt-wal", cfg: suite(1, TransportInproc, wal),
			nonsense: func(c *Config) { c.Durability.GroupCommitInterval = -2 * time.Millisecond }},
		{name: "retwis-hot-4shard", cfg: suite(4, TransportInproc, Durability{}),
			nonsense: func(c *Config) { c.MaxShards = 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if err := cfg.Validate(); err != nil {
				t.Fatalf("rejected: %v", err)
			}
			in := tc.cfg
			if cfg.Replicas != 3 || cfg.Cores != 2 || cfg.Shards != in.Shards || cfg.MaxShards != in.Shards ||
				cfg.Transport != in.Transport || cfg.UDPBasePort != 20000 || cfg.Seed != 1 {
				t.Fatalf("what the suite set was changed: %+v", cfg)
			}
			if cfg.CommitTimeout != 100*time.Millisecond || cfg.Retries != 10 ||
				cfg.BackoffBase != 500*time.Microsecond || cfg.BackoffMax != 50*time.Millisecond ||
				cfg.UDPHost != "127.0.0.1" || cfg.UDPMaxClients != 64 {
				t.Fatalf("defaults not filled in: %+v", cfg)
			}
			d := cfg.Durability
			if d.Enabled() != in.Durability.Enabled() {
				t.Fatalf("durability switched: %+v", d)
			}
			if d.Enabled() && (d.Sync != SyncBatch || d.GroupCommitInterval != 2*time.Millisecond ||
				d.SnapshotInterval != 5*time.Second || d.MaxLogSegment != 64<<20 || d.DeltaMargin != 10*time.Second) {
				t.Fatalf("durability not normalized: %+v", d)
			}
			if !d.Enabled() && d != (Durability{}) {
				t.Fatalf("disabled durability was normalized: %+v", d)
			}
			again := cfg
			if err := again.Validate(); err != nil || again != cfg {
				t.Fatalf("Validate is not idempotent: %v\n%+v\n%+v", err, cfg, again)
			}

			bad := tc.cfg
			tc.nonsense(&bad)
			err := bad.Validate()
			if err == nil {
				t.Fatalf("the nonsense neighbour was accepted: %+v", bad)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("neighbour rejected with %v, want %v", err, tc.wantErr)
			}
		})
	}

	// The session windows (4 over UDP, 8 on the four shards) are client
	// options, not Config fields: the sharded deployment opens sessions of its
	// window, and a stop-and-wait Client refuses one.
	db := newTestDB(t, suite(4, TransportInproc, Durability{}))
	s, err := db.Session(WithPipeline(8))
	if err != nil || s.Window() != 8 {
		t.Fatalf("session of window 8: %v", err)
	}
	s.Close()
	if _, err := db.Client(WithPipeline(8)); err == nil {
		t.Fatal("a Client accepted a pipeline window")
	}
	if _, err := db.Session(WithPipeline(coordinator.MaxWindow + 1)); err == nil {
		t.Fatal("a session window above the ceiling was accepted")
	}
}
