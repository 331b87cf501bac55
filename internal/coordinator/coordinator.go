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
	"context"
	"errors"
	"fmt"
	"time"

	"meerkat/internal/clock"
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
	ErrTimeout = errors.New("coordinator: timed out, outcome unknown")
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
	Clock    clock.Clock

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
	// DisableReadOnlyFastPath forces read-only transactions through the
	// classic validated two-round commit, the ablation knob behind the
	// one-round-vs-two-round read experiment.
	DisableReadOnlyFastPath bool
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

// mailbox is one reply queue and the one timer its owner waits with.
// Everything addressed to a coordinator — from every partition's group, for
// reads, validates, accepts and recovery alike — lands in its one mailbox,
// and await is the one place it blocks. Whoever collects tells the groups
// apart by the partition of a reply's Src: ReplicaID is only unique inside a
// group.
//
// The timer is armed lazily: only when the goroutine is about to park and no
// earlier arming fires in time. A wake-up left over from an earlier wait is
// harmless — every waiter re-reads the clock after one and parks again if it
// came early — so in steady state a commit arms nothing: the stale deadline
// of a commit long finished fires once per Timeout.
type mailbox struct {
	in *transport.Inbox
	t  *time.Timer
	at time.Time // when t fires, or fired unread; zero when it is neither
}

// timer returns a channel that delivers no later than wake. now is the
// caller's fresh clock reading. After a receive the caller zeroes mb.at.
func (mb *mailbox) timer(wake, now time.Time) <-chan time.Time {
	switch {
	case mb.t == nil:
		mb.t = time.NewTimer(wake.Sub(now))
		mb.at = wake
	case mb.at.IsZero() || wake.Before(mb.at):
		if !mb.t.Stop() {
			select {
			case <-mb.t.C:
			default:
			}
		}
		mb.t.Reset(wake.Sub(now))
		mb.at = wake
	}
	return mb.t.C
}

// sleep parks the goroutine for d, or less if ctx expires first. Callers
// re-check the context right after, so no error is returned.
func (mb *mailbox) sleep(ctx context.Context, d time.Duration) {
	now := time.Now()
	for until := now.Add(d); now.Before(until); now = time.Now() {
		select {
		case <-mb.timer(until, now):
			mb.at = time.Time{}
		case <-ctx.Done():
			return
		}
	}
}

// await returns the next reply, or nil and the current time once the clock
// has passed wake or ctx has ended. Replies already queued — the replicas
// typically all ran while this goroutine was parked on the first one — are
// taken without reading the clock or touching the timer.
func (mb *mailbox) await(ctx context.Context, wake time.Time) (*message.Message, time.Time) {
	select {
	case m := <-mb.in.C:
		return m, time.Time{}
	default:
	}
	for {
		now := time.Now()
		if !now.Before(wake) {
			return nil, now
		}
		select {
		case m := <-mb.in.C:
			return m, time.Time{}
		case <-mb.timer(wake, now):
			mb.at = time.Time{} // possibly an earlier wait's wake-up: re-read the clock
		case <-ctx.Done():
			return nil, now
		}
	}
}

// broadcast hands one copy of req per destination in group to ep as a single
// batch — one syscall on the real wire instead of one per replica. Every
// destination gets its own pooled copy (the transport owns a message once
// handed over, stamps Src per send, and its receiver recycles it); the
// copies share req's payload slices, which no receiver writes. req stays the
// caller's, and the Outgoing headers live in the caller's scratch, which is
// returned for reuse. A send error is message loss to every caller — the
// retry loops cover it — except closed, which reports that this coordinator's
// own endpoint is shut: no resend can succeed, so the commit phases stop.
func broadcast(ep transport.Endpoint, group []message.Addr, req *message.Message, scratch []transport.Outgoing) (outs []transport.Outgoing, closed bool) {
	outs = scratch[:0]
	for _, dst := range group {
		m := message.AcquireMessage()
		*m = *req
		outs = append(outs, transport.Outgoing{Dst: dst, M: m})
	}
	return outs, errors.Is(ep.SendBatch(outs), transport.ErrClosed)
}

// backoffDelay computes the capped exponential backoff before retry k
// (0-based): a uniformly jittered duration in (0, min(base<<k, max)]. Full
// jitter rather than base-plus-jitter, so colliding clients decorrelate as
// fast as possible.
func backoffDelay(base, max time.Duration, k int, rng *transport.SplitMix64) time.Duration {
	d := max
	if k < 63 {
		if s := base << uint(k); s > 0 && s < max {
			d = s
		}
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(rng.Uint64()%uint64(d)) + 1
}

// backoff sleeps out the jittered delay before the given attempt of a retry
// loop — none before attempt 0 — and reports a context that has ended.
func (c *Coordinator) backoff(ctx context.Context, attempt int) error {
	if attempt > 0 {
		c.sleep(ctx, backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt-1, &c.rng))
	}
	return expired(ctx)
}

// expired reports a context that has ended as an error that unwraps to both
// ErrTimeout and the context's own: the outcome of an in-flight commit is
// unknown, exactly as on a retry-budget timeout.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return nil
}

// Coordinator drives transactions for one client. It is not safe for
// concurrent use: each closed-loop client owns one. Everything it does runs
// on the caller's goroutine; it starts none of its own.
type Coordinator struct {
	cfg Config
	gen *timestamp.Generator
	rng transport.SplitMix64 // replica/core load balancing and backoff jitter; no lock, no heap

	// eps[0] sends single-key reads, eps[1+p] everything else bound for
	// partition p: for sending only, every one delivers into the mailbox.
	// shared is true for Session workers: the endpoints are the session's,
	// so Close leaves them alone.
	mailbox
	eps    []transport.Endpoint
	shared bool

	readSeq uint64
	obs     *obs.Shard // nil-safe lifecycle recorder (see Config.Obs)

	// Per-coordinator scratch, reused across operations (the coordinator is
	// single-goroutine by contract). None of it is ever placed into a sent
	// message: the transport may deliver a message after the send times out
	// here, so the slices a message carries must never be written again.
	round    round                // the commit in progress: one quorum tally per touched partition
	reads    readRound            // the multi-read or snapshot round in progress
	outs     []transport.Outgoing // broadcast headers
	keyParts []int                // split: partition of each read, write and op
	roKeys   []roKeyState         // snapshot-read settlement scratch, aligned with grouped keys
	ro1      [1]string            // single-key scratch for SnapshotRead

	// lastTS is the highest timestamp this coordinator has committed at, on
	// either path. Snapshot round-down never goes below it, so one session's
	// reads can never miss that session's own writes.
	lastTS timestamp.Timestamp

	// rerouted latches that a wrong-shard redirect refreshed the shard-map
	// cache to a newer version, so Run's next retry can skip the backoff —
	// the re-routed attempt goes to a different replica group and cannot
	// re-collide with whatever aborted this one.
	rerouted bool

	// groups[p*Cores+core] is the broadcast destination set for (p, core),
	// precomputed once so the per-commit phases never allocate it. Immutable
	// after New; a session's workers share one table.
	groups [][]message.Addr
}

// group returns the precomputed broadcast addresses of core `core` on every
// replica of partition p.
func (c *Coordinator) group(p int, core uint32) []message.Addr {
	return c.groups[p*c.cfg.Topo.Cores+int(core)]
}

// partitionFor routes key to its partition through the shard-map cache. The
// cache read is one atomic pointer load and the range lookup a binary search
// over a few entries — no allocation, no lock.
func (c *Coordinator) partitionFor(key string) int {
	return c.cfg.ShardMap.Current().GroupForKey(key)
}

// mapVersion is the shard-map version outgoing requests are stamped with, so
// replicas can tell how stale a redirected client is.
func (c *Coordinator) mapVersion() uint64 {
	return c.cfg.ShardMap.Current().Version()
}

// noteRedirect refreshes the shard-map cache after a wrong-shard reply and
// reports whether the refresh advanced to a newer map — in which case an
// immediate re-routed retry is worthwhile, and rerouted is latched for Run.
func (c *Coordinator) noteRedirect() bool {
	_, advanced := c.cfg.ShardMap.Refresh()
	if advanced {
		c.obs.Inc(obs.MapRefresh)
		c.rerouted = true
	}
	return advanced
}

// newCore builds a coordinator without endpoints: New binds its own, Session
// workers share the session's. cfg is already filled and validated.
func newCore(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:     cfg,
		gen:     timestamp.NewGenerator(cfg.ClientID, cfg.Clock.Now),
		rng:     transport.SeedSplitMix64(uint64(cfg.Seed)),
		obs:     cfg.Obs,
		mailbox: mailbox{in: transport.NewInbox(inboxDepth(cfg.Topo))},
		reads: readRound{
			off:   make([]int, cfg.Topo.Partitions+1),
			tally: make([]readTally, cfg.Topo.Partitions),
		},
	}
	c.round.init(&c.cfg)
	c.groups = make([][]message.Addr, cfg.Topo.Partitions*cfg.Topo.Cores)
	for p := 0; p < cfg.Topo.Partitions; p++ {
		for core := 0; core < cfg.Topo.Cores; core++ {
			c.groups[p*cfg.Topo.Cores+core] = cfg.Topo.GroupAddrs(p, uint32(core))
		}
	}
	return c
}

// inboxDepth sizes the mailbox: one operation's replies from every
// partition's group plus stragglers of retried attempts, with headroom.
func inboxDepth(t topo.Topology) int { return max(256, 8*t.Replicas*t.Partitions) }

// listen binds the endpoints of one client id — the read endpoint at core 0,
// partition p's commit endpoint at core 1+p — every one delivering to h.
func listen(cfg *Config, h transport.Handler) (eps []transport.Endpoint, err error) {
	base := cfg.Topo.ClientAddr(cfg.ClientID)
	for core := 0; core <= cfg.Topo.Partitions; core++ {
		ep, err := cfg.Net.Listen(message.Addr{Node: base.Node, Core: uint32(core)}, h)
		if err != nil {
			closeAll(eps)
			return nil, err
		}
		eps = append(eps, ep)
	}
	return eps, nil
}

func closeAll(eps []transport.Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

// New binds a coordinator's endpoints on cfg.Net.
func New(cfg Config) (*Coordinator, error) {
	cfg.fill()
	if !cfg.Topo.Validate() || cfg.ShardMap == nil {
		return nil, fmt.Errorf("coordinator: invalid topology %+v or no shard map", cfg.Topo)
	}
	c := newCore(cfg)
	var err error
	if c.eps, err = listen(&c.cfg, c.in.Handle); err != nil {
		return nil, err
	}
	return c, nil
}

// Close releases the coordinator's endpoints. Session workers share the
// session's endpoints and leave closing them to Session.Close.
func (c *Coordinator) Close() {
	if !c.shared {
		closeAll(c.eps)
	}
}

// Read performs one execution-phase read: it asks a uniformly chosen replica
// core of the key's partition for the latest committed version. A missing
// key returns ok=false with version Zero — still a meaningful read that the
// validation phase will check.
//
// The end of ctx ends the wait and the retry loop. Reads are idempotent, so a
// context-expired read is always safe to retry.
func (c *Coordinator) Read(ctx context.Context, key string) (value []byte, version timestamp.Timestamp, ok bool, err error) {
	c.readSeq++
	seq := c.readSeq
	c.in.Drain()

	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.obs.Inc(obs.ReadRetry)
		}
		if err = c.backoff(ctx, attempt); err != nil {
			return nil, timestamp.Timestamp{}, false, err
		}
		// Routed per attempt: a wrong-shard redirect below refreshes the map
		// cache, and the resent read must go to the new owner.
		p := c.partitionFor(key)
		// Load-balance GETs across replicas and cores, as in §6.2.
		r := c.rng.Intn(c.cfg.Topo.Replicas)
		core := uint32(c.rng.Intn(c.cfg.Topo.Cores))
		dst := c.cfg.Topo.ReplicaAddr(p, r, core)
		req := message.AcquireMessage()
		req.Type, req.Key, req.Seq, req.MapVersion = message.TypeRead, key, seq, c.mapVersion()
		if err = c.eps[0].Send(dst, req); err != nil {
			return nil, timestamp.Timestamp{}, false, err
		}
		deadline := time.Now().Add(c.cfg.Timeout)
	wait:
		for {
			m, _ := c.await(ctx, deadline)
			if m == nil {
				break
			}
			// The reply is consumed here: copy out what the caller gets,
			// then recycle the struct.
			stale := m.Type != message.TypeReadReply || m.Seq != seq
			wrongShard := m.WrongShard
			value, version, ok = m.Value, m.TS, m.OK
			message.ReleaseMessage(m)
			switch {
			case stale:
			case wrongShard:
				// Routed with a stale map. If the refresh advanced it, the
				// next attempt re-routes (reads are idempotent); otherwise
				// the split is still mid-fence and the caller must back off
				// before asking again.
				c.obs.Inc(obs.TxnWrongShard)
				if !c.noteRedirect() {
					return nil, timestamp.Timestamp{}, false, ErrWrongShard
				}
				break wait
			default:
				return value, version, ok, nil
			}
		}
	}
	return nil, timestamp.Timestamp{}, false, ErrTimeout
}

// sendMultiRead fires one batched read at a uniformly chosen replica core of
// partition p. The message belongs to the transport once sent, and the keys
// slice inside it is read by the replica whenever it arrives: the caller
// allocates it per ReadMany, never a reused scratch.
func (c *Coordinator) sendMultiRead(p int, keys []string, seq uint64) error {
	r := c.rng.Intn(c.cfg.Topo.Replicas)
	core := uint32(c.rng.Intn(c.cfg.Topo.Cores))
	dst := c.cfg.Topo.ReplicaAddr(p, r, core)
	req := message.AcquireMessage()
	req.Type, req.Keys, req.Seq, req.MapVersion = message.TypeMultiRead, keys, seq, c.mapVersion()
	return c.eps[1+p].Send(dst, req)
}

// readTally is one partition's bookkeeping in a multi-read or snapshot
// round. A multi-read round only uses open.
type readTally struct {
	open      bool   // a request is out and no (settled) answer is in
	seen      uint64 // bit i set <=> replica i counted in this attempt
	replied   int
	confirmed int
}

// readRound is the state of one multi-read or snapshot round. Everything but
// grouped is scratch reused by the next round.
type readRound struct {
	// grouped holds the keys in contiguous ascending-partition spans,
	// partition p's at grouped[off[p]:off[p+1]]; origIdx maps each grouped
	// slot back to its position in the caller's keys. Sent messages carry
	// sub-slices of grouped, which therefore is allocated fresh per round.
	grouped []string
	off     []int // len Partitions+1
	origIdx []int
	kp      []int                // partition of each of the caller's keys
	tally   []readTally          // len Partitions
	open    int                  // partitions whose tally is open
	out     []message.ReadResult // index-aligned with the caller's keys and handed back to it
}

// keys returns partition p's span of the grouped keys.
func (rr *readRound) keys(p int) []string { return rr.grouped[rr.off[p]:rr.off[p+1]] }

// result returns where the answer for the j'th of partition p's keys goes.
func (rr *readRound) result(p, j int) *message.ReadResult {
	return &rr.out[rr.origIdx[rr.off[p]+j]]
}

// close marks partition p answered.
func (rr *readRound) close(p int) {
	rr.tally[p].open = false
	rr.open--
}

// groupKeys starts a read round over keys: it groups them by owning
// partition and opens every touched partition's tally.
func (c *Coordinator) groupKeys(keys []string) *readRound {
	rr := &c.reads
	nparts, n := len(rr.tally), len(keys)
	if cap(rr.kp) < n {
		rr.kp = make([]int, n)
		rr.origIdx = make([]int, n)
		rr.out = make([]message.ReadResult, n)
	}
	rr.kp, rr.origIdx, rr.out = rr.kp[:n], rr.origIdx[:n], rr.out[:n]
	off := rr.off
	for p := range off {
		off[p] = 0
	}
	// Count into off[p+1], prefix-sum into span starts, then fill with off[p]
	// as partition p's cursor — which leaves off[p] at the end of span p,
	// the start of span p+1 — and shift back.
	for i, k := range keys {
		rr.kp[i] = c.partitionFor(k)
		off[rr.kp[i]+1]++
	}
	rr.open = 0
	for p := 0; p < nparts; p++ {
		rr.tally[p] = readTally{open: off[p+1] > 0}
		if rr.tally[p].open {
			rr.open++
		}
		off[p+1] += off[p]
	}
	rr.grouped = make([]string, n)
	for i, p := range rr.kp {
		rr.grouped[off[p]] = keys[i]
		rr.origIdx[off[p]] = i
		off[p]++
	}
	copy(off[1:], off[:nparts])
	off[0] = 0
	return rr
}

// ReadMany performs one batched execution phase over keys: the keys are
// grouped by partition and one multi-read is sent to a uniformly chosen
// replica core of each touched partition, with every request in flight
// before any reply is awaited — a transaction's whole read set costs one
// round trip instead of one per key. Results are index-aligned with keys;
// missing keys come back OK=false with version Zero, exactly as in Read.
//
// Like single reads, batched reads are served from the lock-free versioned
// store by any replica core, so batching preserves the zero-coordination
// execution phase (§5.2.1) while amortizing its per-message cost.
//
// Like single reads, batched reads end with ctx, are idempotent and are safe
// to retry after a context-expired attempt.
//
// The returned slice is a scratch reused by the next ReadMany call on this
// coordinator; callers that need the results past that must copy them out.
func (c *Coordinator) ReadMany(ctx context.Context, keys []string) ([]message.ReadResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	rr := c.groupKeys(keys)
	c.readSeq++
	seq := c.readSeq
	c.in.Drain()

	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if err := c.backoff(ctx, attempt); err != nil {
			return nil, err
		}
		// Every open partition's request goes out before any reply is
		// collected, so the round trips overlap; a resend (to a freshly
		// chosen replica) leaves partitions already answered alone.
		for p := range rr.tally {
			if !rr.tally[p].open {
				continue
			}
			if err := c.sendMultiRead(p, rr.keys(p), seq); err != nil {
				return nil, err
			}
			if attempt == 0 {
				c.obs.Inc(obs.ReadMultiRound)
			} else {
				c.obs.Inc(obs.ReadMultiRetry)
			}
		}
		// Replies are taken in arrival order, whichever partition they come
		// from.
		for deadline := time.Now().Add(c.cfg.Timeout); rr.open > 0; {
			m, _ := c.await(ctx, deadline)
			if m == nil {
				break
			}
			// The reply is consumed here: the results move into rr.out (the
			// value bytes are the replica's immutable version storage) and
			// the struct is recycled. Anything but this round's answer from
			// a partition still open is a straggler.
			p := c.cfg.Topo.PartitionOf(m.Src.Node)
			mine := m.Type == message.TypeMultiReadReply && m.Seq == seq && p < len(rr.tally) && rr.tally[p].open
			wrongShard := mine && m.WrongShard
			if mine && !wrongShard && len(m.Reads) == len(rr.keys(p)) {
				for j := range m.Reads {
					*rr.result(p, j) = m.Reads[j]
				}
				rr.close(p)
			}
			message.ReleaseMessage(m)
			if wrongShard {
				// The whole grouping was computed from a stale map: refresh
				// and make the caller re-issue the batch, which will regroup
				// every key under the new map.
				c.obs.Inc(obs.TxnWrongShard)
				c.noteRedirect()
				return nil, ErrWrongShard
			}
		}
		if rr.open == 0 {
			return rr.out, nil
		}
	}
	return nil, ErrTimeout
}
