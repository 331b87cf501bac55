package meerkat

import (
	"testing"
	"time"
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
