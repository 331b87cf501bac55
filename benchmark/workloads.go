package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"meerkat"
	gen "meerkat/internal/workload"
)

// A workload is one fixed traffic mix over one fixed deployment. The names
// are permanent: later issues cite them, and BENCHMARK.json lists them.
type workload struct {
	name string
	why  string

	keys      int     // preloaded keys
	valueSize int     // bytes per value
	theta     float64 // Zipf coefficient; 0 is uniform
	// single selects the single-key mix (half Txn.Read, half Txn.Read +
	// Txn.Write, the TypeRead protocol) over the Retwis mix (batched
	// ReadMany).
	single bool
	// snapshot marks pure-read specs Txn.ReadOnly, so they ride the
	// one-round snapshot path; otherwise they validate like any other.
	snapshot bool

	shards    int
	transport meerkat.TransportKind
	durable   bool
	// window is the pipeline width of each of the C sessions; 0 means C
	// stop-and-wait DB.Clients instead.
	window int
}

var workloads = []workload{
	{
		name: "retwis",
		why:  "Retwis mix, uniform over 200k keys, inproc, in memory: the protocol CPU path does all the work, codec, syscalls and WAL none",
		keys: 200_000, valueSize: 64, shards: 1, snapshot: true,
	},
	{
		name: "retwis-udp",
		why:  "same mix, seed and keys over loopback UDP sessions of window 4: message codec and sendmmsg/recvmmsg batching dominate",
		keys: 200_000, valueSize: 64, shards: 1, snapshot: true,
		transport: meerkat.TransportUDP, window: 4,
	},
	{
		name: "ycsbt-wal",
		why:  "single-key transactions on 16k keys of 512 B with a SyncBatch WAL: WAL append, group-commit fsync, checkpoints and the single-key read protocol",
		keys: 16_384, valueSize: 512, single: true, shards: 1, durable: true,
	},
	{
		name: "retwis-hot-4shard",
		why:  "Retwis mix, Zipf 0.9 over 20k keys on 4 shards, sessions of window 8: occ aborts, Run retry and backoff, multi-shard commit, hot version chains",
		keys: 20_000, valueSize: 64, theta: 0.9, shards: 4, window: 8,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smokeKeys is the key count of the -smoke configuration.
const smokeKeys = 2000

// config is the deployment every run of the workload opens: 3 replicas of 2
// cores per group, everything else the Config defaults.
func (w *workload) config(dataDir string, seed int64) meerkat.Config {
	cfg := meerkat.Config{
		Replicas:  3,
		Cores:     2,
		Shards:    w.shards,
		Transport: w.transport,
		// Clear of every port range the repository's tests bind, so a run
		// beside `go test ./...` cannot take a socket from either.
		UDPBasePort: 20000,
		Seed:        seed,
	}
	if w.durable {
		cfg.Durability = meerkat.Durability{
			DataDir:             dataDir,
			Sync:                meerkat.SyncBatch,
			GroupCommitInterval: 2 * time.Millisecond,
			// At least five checkpoint cycles in a 28 s run.
			SnapshotInterval: 5 * time.Second,
		}
	}
	return cfg
}

// spec is one pre-generated transaction. gets and puts are sub-slices of the
// ring's key arena and value of its value arena, so a ring is a handful of
// large objects the collector barely notices, and running a spec allocates
// nothing in the harness.
type spec struct {
	gets  []string // whole read set: plain reads, then the read halves of the RMWs
	puts  []string // keys written: the RMWs, then the blind writes
	value []byte   // payload of every put; unique to the spec, never mutated
}

func (s *spec) readOnly() bool { return len(s.puts) == 0 }

// ringSize is how many specs a client cycles through. A power of two, so
// session workers stride through disjoint residue classes.
const ringSize = 1 << 16

// keyTable holds the key names of a workload as sub-strings of one blob.
type keyTable []string

func newKeyTable(n int) keyTable {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(gen.KeyName(i))
	}
	blob := b.String()
	width := len(blob) / n
	t := make(keyTable, n)
	for i := range t {
		t[i] = blob[i*width : (i+1)*width]
	}
	return t
}

// index maps a generated key name back to its table index.
func (t keyTable) index(name string) int {
	i, err := strconv.Atoi(name[strings.IndexByte(name, '-')+1:])
	if err != nil || i >= len(t) || t[i] != name {
		panic(fmt.Sprintf("benchmark: key %q is not gen.KeyName of an index below %d", name, len(t)))
	}
	return i
}

// newRing generates client c's ring from the seed. The same (workload, seed,
// client) always yields the same ring.
func (w *workload) newRing(keys keyTable, seed int64, client int) []spec {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919))
	chooser := gen.NewChooser(len(keys), w.theta)
	retwis := gen.NewRetwis(chooser)

	ring := make([]spec, ringSize)
	arena := make([]string, 0, ringSize*6)
	type shape struct{ reads, rmws, writes int }
	shapes := make([]shape, ringSize)
	for i := range ring {
		if w.single {
			k := keys[chooser.Next(rng)]
			arena = append(arena, k)
			if rng.Intn(2) == 0 {
				shapes[i] = shape{reads: 1}
			} else {
				shapes[i] = shape{rmws: 1}
			}
			continue
		}
		ts := retwis.Next(rng)
		for _, group := range [][]string{ts.Reads, ts.RMWs, ts.Writes} {
			for _, k := range group {
				arena = append(arena, keys[keys.index(k)])
			}
		}
		shapes[i] = shape{len(ts.Reads), len(ts.RMWs), len(ts.Writes)}
	}

	writers := 0
	for _, sh := range shapes {
		if sh.rmws+sh.writes > 0 {
			writers++
		}
	}
	values := make([]byte, writers*w.valueSize)
	rand.New(rand.NewSource(seed ^ int64(client+1)<<32)).Read(values)

	off, voff := 0, 0
	for i, sh := range shapes {
		s := &ring[i]
		s.gets = arena[off : off+sh.reads+sh.rmws : off+sh.reads+sh.rmws]
		if sh.rmws+sh.writes > 0 {
			end := off + sh.reads + sh.rmws + sh.writes
			s.puts = arena[off+sh.reads : end : end]
			s.value = values[voff : voff+w.valueSize : voff+w.valueSize]
			voff += w.valueSize
		}
		off += sh.reads + sh.rmws + sh.writes
	}
	return ring
}
