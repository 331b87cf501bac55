package coordinator

import (
	"context"
	"time"

	"meerkat/internal/drive"
	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
	"meerkat/internal/transport"
)

// Every read of the execution phase (§5.2.1) is one round of one step machine
// with two parameters. Without a snapshot timestamp a partition's keys are
// asked of one uniformly chosen replica core and the first good reply closes
// it; with one, every replica is asked and the partition closes on roQuorum
// confirmed replies whose merged answers settle (snapshot.go). A single-key
// Read is the plain round over one key, and nothing else.

// readPart is one partition's part of a read round. Only a snapshot round
// tallies: replied counts the replicas that answered the attempt, ok the
// confirmed ones among them.
type readPart struct {
	drive.Wait
	tally
	open bool   // a request is out, or due, and no (settled) answer is in
	seq  uint64 // Seq of the attempt: replies to any other are stragglers
}

// readRound is the state of one read round, all of it but vals scratch reused
// by the next: a request carries its keys in an array of its own
// (message.OwnKeys), so nothing sent aliases any of it.
type readRound struct {
	drive.Policy
	cfg    *Config
	l      *link               // what perform sends on and routes by
	seq    uint64              // last Seq handed out; a session seeds it with the worker's index
	keysIn []string            // the caller's keys
	snap   timestamp.Timestamp // zero: a plain round, first good reply wins

	// grouped holds the keys in contiguous ascending-partition spans,
	// partition p's at grouped[off[p]:off[p+1]]; origIdx maps each grouped
	// slot back to its position in the caller's keys.
	grouped []string
	off     []int // len Partitions+1
	origIdx []int
	kp      []int                // partition of each of the caller's keys
	parts   []readPart           // len Partitions
	state   []roKeyState         // snapshot settlement, aligned with grouped
	out     []message.ReadResult // index-aligned with the caller's keys and handed back to it
	// vals keeps the values adopted from replies that own their bytes
	// (message.OwnsBytes: decoded ones — their arena dies at the release that
	// follows Reply). Its chunks are append-only, so a value the round hands
	// back stays the caller's for as long as it likes.
	vals message.Chunks

	open       int       // partitions whose part is open
	wake       time.Time // when tick next has to run; zero: at once
	redirected bool      // a wrong-shard reply: perform refreshes the map, then regroups or fails
	// minW is the lowest watermark any snapshot reply carried (snap when none
	// was lower): the round-down hint when the round ends unconfirmed.
	minW timestamp.Timestamp
	err  error // why the round closed without its answers
}

func (rr *readRound) init(cfg *Config, l *link) {
	*rr = readRound{
		Policy: cfg.policy(2), cfg: cfg, l: l,
		off:   make([]int, cfg.Topo.Partitions+1),
		parts: make([]readPart, cfg.Topo.Partitions),
	}
}

// begin starts a round over keys: every touched partition is sent its request.
func (rr *readRound) begin(keys []string, snap timestamp.Timestamp, now time.Time) {
	rr.keysIn, rr.snap, rr.minW, rr.err, rr.redirected = keys, snap, snap, nil, false
	rr.regroup()
	rr.Tick(now)
}

// regroup groups the caller's keys by owning partition under the current
// shard map and makes every touched partition's request due at once, under a
// Seq no reply to an earlier grouping carries.
func (rr *readRound) regroup() {
	keys := rr.keysIn
	nparts, n := len(rr.parts), len(keys)
	if cap(rr.kp) < n {
		rr.kp = make([]int, n)
		rr.grouped = make([]string, n)
		rr.origIdx = make([]int, n)
		rr.out = make([]message.ReadResult, n)
		rr.state = make([]roKeyState, n)
	}
	rr.kp, rr.grouped, rr.origIdx, rr.out, rr.state = rr.kp[:n], rr.grouped[:n], rr.origIdx[:n], rr.out[:n], rr.state[:n]
	off := rr.off
	for p := range off {
		off[p] = 0
	}
	// Count into off[p+1], prefix-sum into span starts, then fill with off[p]
	// as partition p's cursor — which leaves off[p] at the end of span p,
	// the start of span p+1 — and shift back.
	routes := rr.cfg.ShardMap.Current()
	for i, k := range keys {
		rr.kp[i] = routes.GroupForKey(k)
		off[rr.kp[i]+1]++
	}
	rr.seq++
	rr.open = 0
	for p := 0; p < nparts; p++ {
		rr.parts[p] = readPart{open: off[p+1] > 0, seq: rr.seq, Wait: drive.Wait{Kind: drive.WaitResend}}
		if rr.parts[p].open {
			rr.open++
		}
		off[p+1] += off[p]
	}
	for i, p := range rr.kp {
		rr.grouped[off[p]] = keys[i]
		rr.origIdx[off[p]] = i
		off[p]++
	}
	copy(off[1:], off[:nparts])
	off[0] = 0
	rr.wake = time.Time{}
}

func (rr *readRound) Pending() (int, time.Time) { return rr.open, rr.wake }

// fail closes the round without its answers.
func (rr *readRound) fail(err error) { rr.err, rr.open = err, 0 }

// request starts p's next attempt. A snapshot attempt starts from scratch
// under a Seq of its own: a stale reply from an earlier attempt at the same
// snapshot must not poison the settlement flags.
func (rr *readRound) request(p int, now time.Time) {
	t := &rr.parts[p]
	if !rr.snap.IsZero() {
		rr.seq++
		t.seq, t.tally = rr.seq, tally{}
		clear(rr.state[rr.off[p]:rr.off[p+1]])
	}
	rr.Policy.Request(&t.Wait, now)
}

// reply folds one message in. Anything but the current attempt's answer from
// a partition still open is a straggler, whichever group's replica of the
// same number sent it.
func (rr *readRound) Reply(m *message.Message) {
	p := rr.cfg.Topo.PartitionOf(m.Src.Node)
	if m.Type != message.TypeMultiReadReply || p >= len(rr.parts) || !rr.parts[p].open || m.Seq != rr.parts[p].seq {
		return
	}
	t := &rr.parts[p]
	lo, hi := rr.off[p], rr.off[p+1]
	switch {
	case m.WrongShard:
		// The replica no longer owns some requested key and, by design,
		// refused before touching its store — a sealed copy must never raise
		// read timestamps for a snapshot it cannot vouch for.
		if !rr.redirected {
			rr.cfg.Obs.Inc(obs.TxnWrongShard)
			rr.redirected, rr.wake = true, time.Time{}
		}
	case len(m.Reads) != hi-lo:
	case rr.snap.IsZero():
		// The results are copied out, element by element: the reply owns its
		// Reads array and empties it on release. The value bytes stay where
		// they are when they are a stored version's, which is never written
		// again, and are copied when they are the reply's own.
		for j := range m.Reads {
			res := &rr.out[rr.origIdx[lo+j]]
			*res = m.Reads[j]
			rr.keep(m, res)
		}
		rr.close(t)
	case t.replied < rr.cfg.Topo.Replicas && t.count(m.ReplicaID):
		if m.Watermark.Less(rr.minW) {
			rr.minW = m.Watermark
		}
		keys := rr.state[lo:hi]
		if m.Watermark == rr.snap {
			// A confirmed reply's answers are merged, by value, into the
			// partition's key states.
			t.ok++
			for j := range m.Reads {
				if keys[j].merge(&m.Reads[j]) {
					rr.keep(m, &keys[j].res)
				}
			}
		}
		switch {
		case t.ok >= roQuorum(rr.cfg.Topo) && allSettled(keys):
			for j := range keys {
				rr.out[rr.origIdx[lo+j]] = keys[j].res
			}
			rr.close(t)
		case t.replied == rr.cfg.Topo.Replicas:
			rr.wake = time.Time{} // everyone answered, not settled: tick retries now, not at the deadline
		}
	}
}

// keep makes res, just copied out of m, safe to hold past m's release: a value
// cut from m's own arena is copied into the round's chunks.
func (rr *readRound) keep(m *message.Message, res *message.ReadResult) {
	if m.OwnsBytes() {
		res.Value = rr.vals.Span(res.Value)
	}
}

// close marks t's partition answered.
func (rr *readRound) close(t *readPart) {
	t.open = false
	rr.open--
}

// tick folds the time in: backoffs that have run out become requests, and
// attempts whose deadline passed — or whose every replica answered without
// settling — are retried, until a partition's budget is spent and the round
// fails.
func (rr *readRound) Tick(now time.Time) {
	rr.wake = time.Time{}
	for p := range rr.parts {
		t := &rr.parts[p]
		if !t.open {
			continue
		}
		switch expired := !now.Before(t.Wake); {
		case t.Kind == drive.WaitResend && expired:
			rr.request(p, now)
		case t.Kind == drive.WaitReplies && (expired || t.replied == rr.cfg.Topo.Replicas):
			limit, err := 0, ErrTimeout
			if !rr.snap.IsZero() {
				limit, err = roRetries, errROUnconfirmed
			}
			if !rr.Retry(&t.Wait, now, limit) {
				rr.fail(err)
				return
			}
		}
		rr.wake = drive.Earlier(rr.wake, t.Wake)
	}
}

// perform sends every flagged partition's request before the driver collects
// any reply, so the round trips overlap: a snapshot's to every replica (one
// uniformly chosen core), a plain one's — and its resend's — to one uniformly
// chosen replica, load-balancing reads as in §6.2. And it settles a redirect
// by the one wrong-shard rule of all reads: refresh the map; if that advanced
// it, regroup under it and start over at once; if not, the split is still
// mid-fence and the caller must back off before asking again.
func (rr *readRound) Perform() {
	l := rr.l
	if rr.redirected {
		if rr.redirected = false; l.noteRedirect() {
			rr.regroup()
		} else {
			rr.fail(ErrWrongShard)
		}
		return
	}
	topo := rr.cfg.Topo
	for p := range rr.parts {
		t := &rr.parts[p]
		if !t.Send {
			continue
		}
		t.Send = false
		rr.count(l, t.Attempt)
		req := message.Message{Type: message.TypeMultiRead, Keys: rr.grouped[rr.off[p]:rr.off[p+1]], TS: rr.snap, Seq: t.seq, MapVersion: l.mapVersion()}
		group := l.group(p, uint32(l.rng.Intn(topo.Cores)))
		if rr.snap.IsZero() {
			r := l.rng.Intn(topo.Replicas)
			group = group[r : r+1]
		}
		if l.Broadcast(group, &req) {
			rr.fail(transport.ErrClosed)
			return
		}
	}
}

// count records a request going out: a plain round counts per partition sent,
// and both kinds count their resends.
func (rr *readRound) count(l *link, attempt int) {
	switch plain := rr.snap.IsZero(); {
	case attempt == 0 && plain:
		l.obs.Inc(obs.ReadMultiRound)
	case attempt == 0:
	case plain:
		l.obs.Inc(obs.ReadMultiRetry)
	default:
		l.obs.Inc(obs.ROReadRetry)
	}
}

// read runs one read round over keys and returns the results, index-aligned
// with keys, in a scratch reused by the next round. The end of ctx ends it;
// reads are idempotent, so a context-expired read is always safe to retry.
func (c *Coordinator) read(ctx context.Context, keys []string, snap timestamp.Timestamp) ([]message.ReadResult, error) {
	rr := &c.reads
	start := c.Now()
	c.In.Drain()
	rr.begin(keys, snap, start)
	err := c.link.Run(ctx, rr)
	c.obs.Observe(obs.HistReadRound, c.Now().Sub(start))
	if err == nil {
		err = rr.err
	}
	if err != nil {
		return nil, err
	}
	return rr.out, nil
}

// Read performs one execution-phase read: it asks a uniformly chosen replica
// core of the key's partition for the latest committed version. A missing
// key returns ok=false with version Zero — still a meaningful read that the
// validation phase will check.
func (c *Coordinator) Read(ctx context.Context, key string) (value []byte, version timestamp.Timestamp, ok bool, err error) {
	c.ro1[0] = key
	res, err := c.read(ctx, c.ro1[:], timestamp.Timestamp{})
	if err != nil {
		return nil, timestamp.Timestamp{}, false, err
	}
	return res[0].Value, res[0].WTS, res[0].OK, nil
}

// ReadMany performs one batched execution phase over keys: the keys are
// grouped by partition and one multi-read is sent to a uniformly chosen
// replica core of each touched partition, with every request in flight
// before any reply is awaited — a transaction's whole read set costs one
// round trip instead of one per key. Results are index-aligned with keys;
// missing keys come back OK=false with version Zero, exactly as in Read.
//
// Like single reads, batched reads are served from the versioned store by any
// replica core, so batching preserves the zero-coordination execution phase
// (§5.2.1) while amortizing its per-message cost.
//
// The returned slice is a scratch reused by the next read on this
// coordinator; callers that need the results past that must copy them out.
func (c *Coordinator) ReadMany(ctx context.Context, keys []string) ([]message.ReadResult, error) {
	return c.read(ctx, keys, timestamp.Timestamp{})
}
