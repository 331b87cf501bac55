// Command meerkat-server runs one Meerkat replica over real UDP, so a
// 3-replica cluster can be deployed as separate processes (or separate
// machines sharing the same -host network).
//
// A minimal local cluster:
//
//	meerkat-server -index 0 &
//	meerkat-server -index 1 &
//	meerkat-server -index 2 &
//	meerkat-client -op put -key hello -value world
//	meerkat-client -op get -key hello
//
// All processes must agree on -host, -port, -replicas, -cores, and -shards:
// -host, -port and -cores define the port map (internal/topo's address plan,
// cores+1 ports per node), -replicas and -shards who sits where in it.
//
// With -data-dir the replica persists commits to per-core write-ahead logs
// and restarts from disk (see the durability section of DESIGN.md); -sync
// selects the fsync policy (none, batch, always).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"meerkat/internal/obs"
	"meerkat/internal/replica"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
	"meerkat/internal/wal"
	"meerkat/internal/workload"
)

func main() {
	var (
		host        = flag.String("host", "127.0.0.1", "bind address")
		port        = flag.Int("port", 29000, "base UDP port for the address map")
		partition   = flag.Int("partition", 0, "partition (shard group) this replica serves")
		index       = flag.Int("index", 0, "replica index within the partition group")
		replicas    = flag.Int("replicas", 3, "replicas per partition group")
		shards      = flag.Int("shards", 1, "serve one shard of a hash-range shard map over this many groups (sets the partition count; clients must pass the same -shards)")
		cores       = flag.Int("cores", 4, "server threads")
		keys        = flag.Int("keys", 0, "pre-load this many benchmark keys")
		shared      = flag.Bool("shared-record", false, "use the TAPIR-like shared transaction record")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/vars (expvar JSON), and /debug/pprof on this address")
		dataDir     = flag.String("data-dir", "", "persist commits to per-core write-ahead logs in this directory (empty: in-memory only)")
		syncFlag    = flag.String("sync", "batch", "WAL fsync policy: none, batch, or always")
	)
	flag.Parse()

	syncPolicy, err := wal.ParseSyncPolicy(*syncFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	t := topo.Topology{Partitions: *shards, Replicas: *replicas, Cores: *cores}
	if !t.Validate() {
		fmt.Fprintln(os.Stderr, "invalid topology (replicas must be odd, all counts >= 1)")
		os.Exit(2)
	}
	// This replica group sits behind the deterministic version-1 shard map:
	// it redirects keys it does not own, so a client with a mismatched shard
	// count fails loudly instead of reading the wrong group.
	own := shardmap.NewOwnership(shardmap.New(*shards), *partition)
	net := transport.NewUDP(*host, *port, t.EndpointsPerNode())
	defer net.Close()

	reg := obs.NewRegistry()
	net.RegisterObs(reg)

	// With -data-dir the store is rebuilt from the local snapshot + logs; a
	// fresh directory starts empty, exactly like the in-memory path.
	var store *vstore.Store
	var w *wal.Store
	recovered := false
	if *dataDir != "" {
		ws, recov, err := wal.Open(*dataDir, *cores, wal.Options{Sync: syncPolicy})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w, store = ws, recov.Store
		recovered = recov.SnapshotKeys > 0 || recov.Records > 0
		fmt.Printf("wal: recovered snapshot=%d (%d keys) + %d log records, watermark %v, torn=%v, sync=%v\n",
			recov.SnapshotSeq, recov.SnapshotKeys, recov.Records, recov.Watermark, recov.Torn, syncPolicy)
	} else {
		store = vstore.New(vstore.Config{})
	}
	reg.RegisterGauge("vstore_keys", func() uint64 { k, _ := store.Counts(); return k })
	reg.RegisterGauge("vstore_versions", func() uint64 { _, v := store.Counts(); return v })
	if w != nil {
		reg.RegisterGauge("wal_appends", func() uint64 { return w.Stats().Appends })
		reg.RegisterGauge("wal_syncs", func() uint64 { return w.Stats().Syncs })
		reg.RegisterGauge("wal_bytes_written", func() uint64 { return w.Stats().BytesWritten })
		// Non-zero means disk IO has failed at least once; alert on it —
		// records are retained and retried, but durability is degraded.
		reg.RegisterGauge("wal_failures", func() uint64 { return w.Stats().Failures })
	}

	rep, err := replica.New(replica.Config{
		Topo:         t,
		Partition:    *partition,
		Index:        *index,
		Net:          net,
		Store:        store,
		Ownership:    own,
		SharedRecord: *shared,
		Obs:          reg,
		WAL:          w,
	})
	if err != nil {
		if w != nil {
			w.Close()
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *keys > 0 && !recovered {
		// Preload through the replica so the keys hit the WAL too; a
		// restarted replica already has them from replay.
		val := workload.Value(64)
		ts := timestamp.Timestamp{Time: 1, ClientID: 0}
		for i := 0; i < *keys; i++ {
			rep.Load(workload.KeyName(i), val, ts)
		}
		fmt.Printf("loaded %d keys\n", *keys)
	}
	if err := rep.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Stop flushes and fsyncs every core's log before closing it, so a
	// SIGTERM'd replica restarts with zero committed-transaction loss.
	defer rep.Stop()

	if *metricsAddr != "" {
		srv, addr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", addr)
	}

	fmt.Printf("meerkat replica %d/%d of partition %d serving on %s:%d+ (%d cores)\n",
		*index, *replicas, *partition, *host, *port, *cores)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}
