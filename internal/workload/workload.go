// Package workload generates the two benchmarks of the paper's evaluation:
// YCSB-T (transactional YCSB workload F — one read-modify-write per
// transaction) and Retwis, the Twitter-like transactional mix of Table 2.
// Key popularity follows a YCSB-style Zipfian distribution whose coefficient
// sweeps from 0 (uniform) through >0.9 (highly contended), exactly the axis
// of Figures 6 and 7.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// TxnSpec is one generated transaction: keys that are only read, keys that
// are read and then rewritten (read-modify-write), keys that are blindly
// written, and keys bumped by a server-side increment (no read, no
// read-version — the commutative-op alternative to an RMW). All keys within
// a spec are distinct.
type TxnSpec struct {
	Reads  []string
	RMWs   []string
	Writes []string
	Incrs  []string
	// Kind labels the transaction type (for mix accounting).
	Kind string
}

// NumOps returns the total operation count (reads + writes) of the spec.
func (s *TxnSpec) NumOps() int {
	return len(s.Reads) + 2*len(s.RMWs) + len(s.Writes) + len(s.Incrs)
}

// AppendGets appends every key the transaction reads — plain reads first,
// then the read halves of the read-modify-writes — to dst and returns it.
// It gives harnesses the whole read set up front so they can issue it as one
// batched read instead of one round trip per key.
func (s *TxnSpec) AppendGets(dst []string) []string {
	dst = append(dst, s.Reads...)
	return append(dst, s.RMWs...)
}

// Generator produces transaction specs. Implementations are not safe for
// concurrent use; give each client goroutine its own (sharing the rng-free
// key chooser state is fine because choosers are immutable).
type Generator interface {
	Next(rng *rand.Rand) TxnSpec
	Name() string
}

// KeyName formats key index i the way the loaders and generators agree on.
func KeyName(i int) string { return fmt.Sprintf("key-%08d", i) }

// Value returns a fresh value payload of n bytes (the paper uses 64-byte
// keys and values).
func Value(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

// KeyChooser picks key indices in [0, n) with some popularity distribution.
// Implementations are immutable and safe to share across goroutines; the
// caller supplies the rng.
type KeyChooser interface {
	Next(rng *rand.Rand) int
	N() int
}

// Uniform chooses keys uniformly (Zipf coefficient 0).
type Uniform struct {
	n int
}

// NewUniform returns a uniform chooser over [0, n).
func NewUniform(n int) *Uniform { return &Uniform{n: n} }

// Next implements KeyChooser.
func (u *Uniform) Next(rng *rand.Rand) int { return rng.Intn(u.n) }

// N implements KeyChooser.
func (u *Uniform) N() int { return u.n }

// Zipfian is the YCSB zipfian_generator: item ranks follow a Zipf
// distribution with coefficient theta in (0, 1). (math/rand's Zipf requires
// s > 1, which cannot express the YCSB range, hence this implementation.)
type Zipfian struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfian returns a Zipfian chooser over [0, n) with coefficient theta.
// Popular items are the low indices; callers that want popular keys spread
// over the keyspace should permute indices (see Scrambled).
func NewZipfian(n int, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1.0 - math.Pow(2.0/float64(n), 1.0-theta)) / (1.0 - z.zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements KeyChooser using the YCSB rejection-free formula.
func (z *Zipfian) Next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1.0, z.alpha))
}

// N implements KeyChooser.
func (z *Zipfian) N() int { return z.n }

// Scrambled wraps a chooser and spreads its popular indices over the
// keyspace with a multiplicative hash, so hot keys do not cluster in one
// hash-table shard or partition.
type Scrambled struct {
	inner KeyChooser
}

// NewScrambled returns a scrambled view of inner.
func NewScrambled(inner KeyChooser) *Scrambled { return &Scrambled{inner: inner} }

// Next implements KeyChooser.
func (s *Scrambled) Next(rng *rand.Rand) int {
	i := uint64(s.inner.Next(rng))
	i *= 0x9E3779B97F4A7C15 // Fibonacci hashing constant
	return int(i % uint64(s.inner.N()))
}

// N implements KeyChooser.
func (s *Scrambled) N() int { return s.inner.N() }

// NewChooser builds the chooser for a Zipf coefficient: uniform at 0,
// scrambled Zipfian otherwise.
func NewChooser(n int, theta float64) KeyChooser {
	if theta <= 0 {
		return NewUniform(n)
	}
	return NewScrambled(NewZipfian(n, theta))
}

// distinct fills out with k distinct key indices from the chooser.
func distinct(rng *rand.Rand, c KeyChooser, k int, out []int) []int {
	out = out[:0]
	for len(out) < k {
		cand := c.Next(rng)
		dup := false
		for _, x := range out {
			if x == cand {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, cand)
		}
	}
	return out
}

// YCSBT generates the transactional variant of YCSB workload F used in
// Figures 4, 6a, and 7a: each transaction is a single read-modify-write on
// one key.
type YCSBT struct {
	chooser KeyChooser
	scratch []int
}

// NewYCSBT returns a YCSB-T generator over keys chosen by chooser.
func NewYCSBT(chooser KeyChooser) *YCSBT {
	return &YCSBT{chooser: chooser}
}

// Name implements Generator.
func (y *YCSBT) Name() string { return "ycsb-t" }

// Next implements Generator.
func (y *YCSBT) Next(rng *rand.Rand) TxnSpec {
	return TxnSpec{
		RMWs: []string{KeyName(y.chooser.Next(rng))},
		Kind: "rmw",
	}
}

// Counter is the hot-counter workload of the commutative-op comparison:
// every transaction bumps one chooser-picked key. With ViaOp false it is the
// abort-prone OCC pattern (read the counter, write value+1 back); with ViaOp
// true the same logical update ships as a server-side increment carrying no
// read version, so concurrent bumps merge at the replicas instead of
// aborting each other. Same key popularity, same logical work — the
// difference in abort rate and goodput is exactly what typed ops buy.
type Counter struct {
	chooser KeyChooser
	// ViaOp selects the increment-op encoding over read+write-back.
	ViaOp bool
}

// NewCounter returns a counter generator over keys chosen by chooser.
func NewCounter(chooser KeyChooser, viaOp bool) *Counter {
	return &Counter{chooser: chooser, ViaOp: viaOp}
}

// Name implements Generator.
func (c *Counter) Name() string {
	if c.ViaOp {
		return "counter-incr"
	}
	return "counter-rmw"
}

// Next implements Generator.
func (c *Counter) Next(rng *rand.Rand) TxnSpec {
	k := KeyName(c.chooser.Next(rng))
	if c.ViaOp {
		return TxnSpec{Incrs: []string{k}, Kind: "incr"}
	}
	return TxnSpec{RMWs: []string{k}, Kind: "rmw"}
}

// Retwis generates the Table 2 mix:
//
//	Add User        1 get  3 puts   5%
//	Follow/Unfollow 2 gets 2 puts  15%
//	Post Tweet      3 gets 5 puts  30%
//	Load Timeline   rand(1,10) gets 50%
//
// Following the TAPIR Retwis client, puts overlap the gets where the counts
// allow (read-modify-writes on the user/tweet records) with the remainder
// as blind writes.
type Retwis struct {
	chooser KeyChooser
	scratch []int
	keys    []string
}

// NewRetwis returns a Retwis generator over keys chosen by chooser.
func NewRetwis(chooser KeyChooser) *Retwis {
	return &Retwis{chooser: chooser}
}

// Name implements Generator.
func (r *Retwis) Name() string { return "retwis" }

// pick returns k distinct key names.
func (r *Retwis) pick(rng *rand.Rand, k int) []string {
	r.scratch = distinct(rng, r.chooser, k, r.scratch)
	r.keys = r.keys[:0]
	for _, i := range r.scratch {
		r.keys = append(r.keys, KeyName(i))
	}
	return r.keys
}

// Next implements Generator.
func (r *Retwis) Next(rng *rand.Rand) TxnSpec {
	switch p := rng.Intn(100); {
	case p < 5: // Add User: 1 get, 3 puts
		k := r.pick(rng, 3)
		return TxnSpec{
			RMWs:   []string{k[0]},
			Writes: []string{k[1], k[2]},
			Kind:   "add-user",
		}
	case p < 20: // Follow/Unfollow: 2 gets, 2 puts
		k := r.pick(rng, 2)
		return TxnSpec{
			RMWs: []string{k[0], k[1]},
			Kind: "follow-unfollow",
		}
	case p < 50: // Post Tweet: 3 gets, 5 puts
		k := r.pick(rng, 5)
		return TxnSpec{
			RMWs:   []string{k[0], k[1], k[2]},
			Writes: []string{k[3], k[4]},
			Kind:   "post-tweet",
		}
	default: // Load Timeline: rand(1,10) gets
		n := 1 + rng.Intn(10)
		k := r.pick(rng, n)
		reads := make([]string, n)
		copy(reads, k)
		return TxnSpec{
			Reads: reads,
			Kind:  "load-timeline",
		}
	}
}
