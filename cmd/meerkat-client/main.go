// Command meerkat-client talks to a meerkat-server cluster over real UDP:
// single gets/puts, read-modify-write transactions, or a small closed-loop
// benchmark.
//
//	meerkat-client -op put -key hello -value world
//	meerkat-client -op get -key hello
//	meerkat-client -op incr -key counter          (server-side commutative Add)
//	meerkat-client -op append -key log -value x   (server-side commutative Append)
//	meerkat-client -op bench -duration 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/coordinator"
	"meerkat/internal/shardmap"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/workload"
)

func main() {
	var (
		host      = flag.String("host", "127.0.0.1", "cluster address")
		port      = flag.Int("port", 29000, "base UDP port of the address map")
		replicas  = flag.Int("replicas", 3, "replicas per partition group")
		shards    = flag.Int("shards", 1, "route by the versioned hash-range shard map over this many shards (must match the servers' -shards)")
		cores     = flag.Int("cores", 4, "server threads per replica")
		clientID  = flag.Uint64("id", defaultClientID(os.Getpid()), "unique client id; picks the client's one UDP port (default 1 + pid mod 1024)")
		op        = flag.String("op", "get", "operation: get|mget|put|incr|append|bench")
		key       = flag.String("key", "", "key (for mget: comma-separated keys)")
		value     = flag.String("value", "", "value (put)")
		duration  = flag.Duration("duration", 3*time.Second, "bench duration")
		benchKeys = flag.Int("bench-keys", 1024, "bench keyspace (pre-load with meerkat-server -keys)")
		pipeline  = flag.Int("pipeline", 1, "bench: transactions kept in flight over the client's one socket (pipelined session workers)")
	)
	flag.Parse()

	// Every process that agrees on -shards derives the same version-1 shard
	// map (splits need a shared map service, which multi-process deployments
	// don't have yet), and servers started with the same -shards enforce
	// ownership, so a mismatched client is redirected instead of silently
	// misrouted.
	t := topo.Topology{Partitions: *shards, Replicas: *replicas, Cores: *cores}
	if !t.Validate() {
		fmt.Fprintln(os.Stderr, "invalid topology (replicas must be odd, all counts >= 1)")
		os.Exit(2)
	}
	sm := shardmap.NewCache(shardmap.NewSource(shardmap.New(*shards)))
	net := transport.NewUDP(*host, *port, t.EndpointsPerNode())
	defer net.Close()
	if err := checkClientID(net, t, *clientID); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ccfg := coordinator.Config{
		Topo:     t,
		ClientID: *clientID % (1 << 32), // keep the session worker-demux bits clear
		Net:      net,
		Clock:    clock.NewReal(),
		Timeout:  200 * time.Millisecond,
		ShardMap: sm,
	}
	// A pipelined bench multiplexes *pipeline workers over one socket;
	// everything else drives a single stop-and-wait coordinator. Both paths
	// bind the same client address, so they are built mutually exclusively.
	var workers []*coordinator.Coordinator
	if *op == "bench" && *pipeline > 1 {
		sess, err := coordinator.NewSession(ccfg, *pipeline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer sess.Close()
		for i := 0; i < sess.Window(); i++ {
			workers = append(workers, sess.Worker(i))
		}
	} else {
		c, err := coordinator.New(ccfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer c.Close()
		workers = []*coordinator.Coordinator{c}
	}
	coord := workers[0]

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx := context.Background()
	switch *op {
	case "get":
		val, ver, ok, err := coord.Read(ctx, *key)
		if err != nil {
			fail(err)
		}
		if !ok {
			fmt.Printf("%s: (not found)\n", *key)
			return
		}
		fmt.Printf("%s = %q (version %v)\n", *key, val, ver)

	case "mget":
		keys := strings.Split(*key, ",")
		res, err := coord.ReadMany(ctx, keys)
		if err != nil {
			fail(err)
		}
		for i, k := range keys {
			if !res[i].OK {
				fmt.Printf("%s: (not found)\n", k)
				continue
			}
			fmt.Printf("%s = %q (version %v)\n", k, res[i].Value, res[i].WTS)
		}

	case "put":
		txn := coord.Begin()
		txn.Write(*key, []byte(*value))
		committed, err := txn.Commit()
		if err != nil {
			fail(err)
		}
		fmt.Printf("put %s: committed=%v\n", *key, committed)

	case "incr":
		// Server-side increment: the transaction ships Add(key, delta)
		// instead of read + write-back, so concurrent increments merge at
		// the replicas rather than aborting each other. -value overrides
		// the delta (default 1). The commit carries no read set, so the
		// Run loop's retry path is only for lost messages, never for
		// contention.
		delta := int64(1)
		if *value != "" {
			d, err := strconv.ParseInt(*value, 10, 64)
			if err != nil {
				fail(fmt.Errorf("incr: -value must be a decimal delta: %w", err))
			}
			delta = d
		}
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := coord.Run(rctx, func(txn *coordinator.Txn) error {
			txn.Add(*key, delta)
			return nil
		}); err != nil {
			fail(fmt.Errorf("incr: %w", err))
		}
		// Report the merged value with a follow-up read (other clients may
		// merge concurrently, so this is a floor, not the exact result).
		if cur, _, ok, err := coord.Read(ctx, *key); err == nil && ok {
			fmt.Printf("%s = %s\n", *key, cur)
		} else {
			fmt.Printf("%s += %d: committed\n", *key, delta)
		}

	case "append":
		// Server-side append: ships the bytes as a commutative op, merged
		// into the value in commit-timestamp order.
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := coord.Run(rctx, func(txn *coordinator.Txn) error {
			txn.Append(*key, []byte(*value))
			return nil
		}); err != nil {
			fail(fmt.Errorf("append: %w", err))
		}
		if cur, _, ok, err := coord.Read(ctx, *key); err == nil && ok {
			fmt.Printf("%s = %q\n", *key, cur)
		} else {
			fmt.Printf("append %s: committed\n", *key)
		}

	case "bench":
		// One goroutine per pipelined worker; with -pipeline 1 this is the
		// original single closed loop. All workers share the one socket, so
		// their concurrent round trips batch into shared sendmmsg calls.
		val := workload.Value(64)
		var committed, aborted atomic.Uint64
		deadline := time.Now().Add(*duration)
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w *coordinator.Coordinator) {
				defer wg.Done()
				gen := workload.NewYCSBT(workload.NewUniform(*benchKeys))
				rng := newRng(*clientID + uint64(i)*0x9e3779b9)
				for time.Now().Before(deadline) {
					spec := gen.Next(rng)
					txn := w.Begin()
					bad := false
					for _, k := range spec.RMWs {
						if _, err := txn.Read(k); err != nil {
							bad = true
							break
						}
						txn.Write(k, val)
					}
					if bad {
						continue
					}
					ok, err := txn.Commit()
					switch {
					case err != nil:
					case ok:
						committed.Add(1)
					default:
						aborted.Add(1)
					}
				}
			}(i, w)
		}
		wg.Wait()
		secs := duration.Seconds()
		c, a := committed.Load(), aborted.Load()
		fmt.Printf("committed %d (%.0f txns/sec), aborted %d (%.1f%%), pipeline %d\n",
			c, float64(c)/secs, a, 100*float64(a)/float64(c+a+1), len(workers))

	default:
		fail(fmt.Errorf("unknown op %q", *op))
	}
}

// defaultClientIDs bounds the default id: client ids pick UDP port slots, and
// a raw PID maps past port 65535 (transport.ErrPortRange) from a few thousand
// up. Two clients that collide fail loudly at bind with EADDRINUSE.
const defaultClientIDs = 1024

func defaultClientID(pid int) uint64 { return 1 + uint64(pid)%defaultClientIDs }

// checkClientID rejects an -id whose port lies past 65535 under net's map,
// naming the largest id that fits, so the mistake surfaces at the flags
// instead of as ErrPortRange from the first bind. The bound is
// ValidatePortMap's: the one port client id binds.
func checkClientID(net *transport.UDP, t topo.Topology, id uint64) error {
	first := net.Port(t.ClientAddr(0))
	if first > 65535 {
		return fmt.Errorf("-port leaves no room for client ports (client 0 would bind %d)", first)
	}
	if largest := uint64(65535-first) / uint64(t.EndpointsPerNode()); id > largest {
		return fmt.Errorf("-id %d is past the UDP port budget of -port/-cores: the largest usable id is %d", id, largest)
	}
	return net.ValidatePortMap(t, int(id)+1)
}

// newRng seeds per-client randomness from the client id.
func newRng(id uint64) *rand.Rand { return rand.New(rand.NewSource(int64(id) + 1)) }
