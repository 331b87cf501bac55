package coordinator

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/shardmap"
	"meerkat/internal/transport"
)

// Everything a coordinator waits for — execution-phase reads (§5.2.1), the
// validate/accept round (§5.2.2), the coordinator change of recovery (§5.3.2)
// — is a round: a step machine that neither blocks, sends nor reads a clock.
// link.run is the one loop that drives them all, and the only place that waits.
type machine interface {
	reply(m *message.Message) // fold one message in
	tick(now time.Time)       // fold the time in: deadlines, grace windows, backoffs
	perform(l *link)          // do what reply and tick flagged: the sends, a map refresh
	// pending reports the partitions still open and when tick next has to
	// run: zero means at once, as soon as the mailbox is empty.
	pending() (open int, wake time.Time)
}

// waitKind says what a partition's wake instant means.
type waitKind uint8

const (
	waitReplies waitKind = iota // a request is out; wake is its deadline
	waitGrace                   // a majority replied without deciding; wake ends the stragglers' window
	waitResend                  // the attempt failed; wake ends the backoff
)

// wait is where one partition's request stands.
type wait struct {
	send    bool // the driver is to send the request
	kind    waitKind
	wake    time.Time
	attempt int // resends of the request so far
}

// policy is the retry policy of every round: an attempt waits Timeout for its
// replies, a failed one is resent after a capped, jittered backoff, and after
// Retries resends the partition gives up.
type policy struct {
	cfg *Config
	rng transport.SplitMix64 // backoff jitter
}

// request asks the driver to send w's request and starts its deadline.
func (pl *policy) request(w *wait, now time.Time) {
	w.send, w.kind, w.wake = true, waitReplies, now.Add(pl.cfg.Timeout)
}

// retry schedules a resend of w's request after the backoff, or reports false
// once the budget — cfg.Retries resends, or a tighter limit > 0 — is spent.
func (pl *policy) retry(w *wait, now time.Time, limit int) bool {
	budget := pl.cfg.Retries
	if limit > 0 && limit < budget {
		budget = limit
	}
	if w.attempt >= budget {
		return false
	}
	w.kind, w.wake = waitResend, now.Add(backoffDelay(pl.cfg.BackoffBase, pl.cfg.BackoffMax, w.attempt, &pl.rng))
	w.attempt++
	return true
}

// earlier folds one more partition's wake instant into a round's (zero: none yet).
func earlier(wake, w time.Time) time.Time {
	if wake.IsZero() || w.Before(wake) {
		return w
	}
	return wake
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

// expired reports a context that has ended as an error that unwraps to both
// ErrTimeout and the context's own: the outcome of an in-flight commit is
// unknown, exactly as on a retry-budget timeout.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return nil
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

// link is what a round is driven over: the mailbox its replies arrive in, the
// endpoint its requests leave by, the routing map they are stamped with. One
// endpoint, one mailbox: a party is one address (topo's plan).
type link struct {
	mailbox
	ep transport.Endpoint
	// groups[p*cores+core] is the broadcast destination set for (p, core),
	// precomputed once so no round allocates it. Immutable once built; a
	// session's workers share one table.
	groups [][]message.Addr
	cores  int
	outs   []transport.Outgoing // broadcast headers, reused
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

// broadcast hands one copy of req per destination in group to the endpoint as
// a single batch — one syscall on the real wire instead of one per replica.
// Every destination gets its own pooled copy (the transport owns a message once
// handed over, stamps Src per send, and its receiver recycles it); the copies
// share req's Txn sets, which no receiver writes, and each carries the Keys in
// an array of its own (message.CopyFrom). req, and whatever scratch its Keys
// alias, stays the caller's. A send error is message loss to every round — the
// retry policy covers it — except closed, which reports that this link's own
// endpoint is shut: no resend can succeed, so the round stops.
func (l *link) broadcast(group []message.Addr, req *message.Message) (closed bool) {
	l.outs = l.outs[:0]
	for _, dst := range group {
		m := message.AcquireMessage()
		m.CopyFrom(req)
		l.outs = append(l.outs, transport.Outgoing{Dst: dst, M: m})
	}
	return errors.Is(l.ep.SendBatch(l.outs), transport.ErrClosed)
}

// run drives the round m has begun until none of its partitions is open: it
// performs what the step functions asked for and otherwise waits for the next
// reply, the round's next wake instant or the end of ctx, whose error it returns.
func (l *link) run(ctx context.Context, m machine) error {
	err := expired(ctx)
	for err == nil {
		m.perform(l)
		open, wake := m.pending()
		if open == 0 {
			return nil
		}
		msg, now := l.await(ctx, wake)
		if msg != nil {
			// Consumed here: a round keeps scalars and the slices it moves out.
			m.reply(msg)
			message.ReleaseMessage(msg)
		} else if err = expired(ctx); err == nil {
			m.tick(now)
		}
	}
	return err
}
