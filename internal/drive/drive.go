// Package drive is the one loop every round of the protocol runs on, and the
// one retry policy they run under. Everything a party waits for — the
// execution-phase reads (§5.2.1), the validate/accept round (§5.2.2), the
// coordinator change of recovery (§5.3.2), the epoch change and the state
// transfer before it (§5.3.1) — is a round: a step machine that neither
// blocks nor reads a clock. Link.Run drives them all, and is the only place
// that waits — on the clock of the network the link is bound to.
package drive

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/transport"
)

// ErrTimeout means a round could not assemble the quorums it needed within
// its retry budget or its caller's context; the outcome of what it drove is
// unknown.
var ErrTimeout = errors.New("drive: timed out, outcome unknown")

// Machine is a round. Its owner gives it the link it sends on.
type Machine interface {
	Reply(m *message.Message) // fold one message in
	Tick(now time.Time)       // fold the time in: deadlines, grace windows, backoffs
	Perform()                 // do what Reply and Tick flagged: the sends, a map refresh
	// Pending reports the requests still open and when Tick next has to run:
	// zero means at once, as soon as the mailbox is empty.
	Pending() (open int, wake time.Time)
}

// WaitKind says what a request's wake instant means.
type WaitKind uint8

const (
	WaitReplies WaitKind = iota // a request is out; Wake is its deadline
	WaitGrace                   // a majority replied without deciding; Wake ends the stragglers' window
	WaitResend                  // the attempt failed; Wake ends the backoff
)

// Wait is where one request stands.
type Wait struct {
	Send    bool // the machine's Perform is to send the request
	Kind    WaitKind
	Wake    time.Time
	Attempt int // resends of the request so far
}

// Policy is the retry policy of every round: an attempt waits Timeout for its
// replies, a failed one is resent after a capped, jittered backoff, and after
// Retries resends the request gives up.
type Policy struct {
	Timeout                 time.Duration
	Retries                 int
	BackoffBase, BackoffMax time.Duration
	Rng                     transport.SplitMix64 // backoff jitter
}

// Request asks for w's request to be sent and starts its deadline.
func (pl *Policy) Request(w *Wait, now time.Time) {
	w.Send, w.Kind, w.Wake = true, WaitReplies, now.Add(pl.Timeout)
}

// Grace opens the stragglers' window: once a majority is in, the rest get a
// tenth of a timeout, not a whole one — a crashed replica must not cost a
// full timeout per round.
func (pl *Policy) Grace(w *Wait, now time.Time) {
	w.Kind, w.Wake = WaitGrace, now.Add(max(pl.Timeout/10, time.Millisecond))
}

// Retry schedules a resend of w's request after the backoff, or reports false
// once the budget — Retries resends, or a tighter limit > 0 — is spent.
func (pl *Policy) Retry(w *Wait, now time.Time, limit int) bool {
	budget := pl.Retries
	if limit > 0 && limit < budget {
		budget = limit
	}
	if w.Attempt >= budget {
		return false
	}
	w.Kind, w.Wake = WaitResend, now.Add(BackoffDelay(pl.BackoffBase, pl.BackoffMax, w.Attempt, &pl.Rng))
	w.Attempt++
	return true
}

// Earlier folds one more request's wake instant into a round's (zero: none yet).
func Earlier(wake, w time.Time) time.Time {
	if wake.IsZero() || w.Before(wake) {
		return w
	}
	return wake
}

// BackoffDelay computes the capped exponential backoff before retry k
// (0-based): a uniformly jittered duration in (0, min(base<<k, max)]. Full
// jitter rather than base-plus-jitter, so colliding clients decorrelate as
// fast as possible.
func BackoffDelay(base, max time.Duration, k int, rng *transport.SplitMix64) time.Duration {
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

// Expired reports a context that has ended as an error that unwraps to both
// ErrTimeout and the context's own: the outcome of an in-flight commit is
// unknown, exactly as on a retry-budget timeout.
func Expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return nil
}

// Mailbox is one reply queue, the clock its owner reads and the one timer its
// owner waits with. Everything addressed to a party — from every partition's
// group, for reads, validates, accepts and recovery alike — lands in its one
// mailbox, and await is the one place it blocks. Whoever collects tells the
// groups apart by the partition of a reply's Src: ReplicaID is only unique
// inside a group.
//
// The timer is armed lazily: only when the goroutine is about to park and no
// earlier arming fires in time. A wake-up left over from an earlier wait is
// harmless — every waiter re-reads the clock after one and parks again if it
// came early — so in steady state a commit arms nothing: the stale deadline
// of a commit long finished fires once per Timeout.
type Mailbox struct {
	In    *transport.Inbox
	Clock clock.Clock
	t     clock.Timer
	at    time.Time // when t fires, or fired unread; zero when it is neither
}

// Now is the clock's reading as the instant the rounds compute with: the one
// place a reading becomes a time.Time.
func (mb *Mailbox) Now() time.Time { return time.Unix(0, mb.Clock.Now()) }

// timer returns a channel that delivers no later than wake. now is the
// caller's fresh clock reading. After a receive the caller zeroes mb.at.
func (mb *Mailbox) timer(wake, now time.Time) <-chan time.Time {
	if mb.t == nil {
		mb.t = mb.Clock.NewTimer()
	}
	if mb.at.IsZero() || wake.Before(mb.at) {
		mb.t.Reset(wake.Sub(now))
		mb.at = wake
	}
	return mb.t.C()
}

// Sleep parks the goroutine for d, or less if ctx expires first. Callers
// re-check the context right after, so no error is returned.
func (mb *Mailbox) Sleep(ctx context.Context, d time.Duration) {
	now := mb.Now()
	for until := now.Add(d); now.Before(until); now = mb.Now() {
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
func (mb *Mailbox) await(ctx context.Context, wake time.Time) (*message.Message, time.Time) {
	select {
	case m := <-mb.In.C:
		return m, time.Time{}
	default:
	}
	for {
		now := mb.Now()
		if !now.Before(wake) {
			return nil, now
		}
		select {
		case m := <-mb.In.C:
			return m, time.Time{}
		case <-mb.timer(wake, now):
			mb.at = time.Time{} // possibly an earlier wait's wake-up: re-read the clock
		case <-ctx.Done():
			return nil, now
		}
	}
}

// Link is what a round is driven over: the mailbox its replies arrive in and
// the endpoint its requests leave by. One endpoint, one mailbox: a party is
// one address (topo's plan).
type Link struct {
	Mailbox
	Ep   transport.Endpoint
	outs []transport.Outgoing // broadcast headers, reused
}

// Listen binds addr on net to a new link, on net's clock, whose mailbox holds
// depth messages.
func Listen(net transport.Network, addr message.Addr, depth int) (*Link, error) {
	l := &Link{Mailbox: Mailbox{In: transport.NewInbox(depth), Clock: net.Clock()}}
	var err error
	if l.Ep, err = net.Listen(addr, l.In.Handle); err != nil {
		return nil, err
	}
	return l, nil
}

// Broadcast hands one copy of req per destination in group to the endpoint as
// a single batch — one syscall on the real wire instead of one per replica.
// Every destination gets its own pooled copy (the transport owns a message once
// handed over, stamps Src per send, and its receiver recycles it); the copies
// share req's Txn sets and Records, which no receiver writes, and each carries
// the Keys in an array of its own (message.CopyFrom). req, and whatever scratch
// its Keys alias, stays the caller's. A send error is message loss to every
// round — the retry policy covers it — except closed, which reports that this
// link's own endpoint is shut: no resend can succeed, so the round stops.
func (l *Link) Broadcast(group []message.Addr, req *message.Message) (closed bool) {
	l.outs = l.outs[:0]
	for _, dst := range group {
		m := message.AcquireMessage()
		m.CopyFrom(req)
		l.outs = append(l.outs, transport.Outgoing{Dst: dst, M: m})
	}
	return errors.Is(l.Ep.SendBatch(l.outs), transport.ErrClosed)
}

// Run drives the round m has begun until none of its requests is open: it
// performs what the step functions asked for and otherwise waits for the next
// reply, the round's next wake instant or the end of ctx, whose error it returns.
func (l *Link) Run(ctx context.Context, m Machine) error {
	err := Expired(ctx)
	for err == nil {
		m.Perform()
		open, wake := m.Pending()
		if open == 0 {
			return nil
		}
		msg, now := l.await(ctx, wake)
		if msg != nil {
			// Consumed here: a round keeps scalars and the slices it moves out.
			m.Reply(msg)
			message.ReleaseMessage(msg)
		} else if err = Expired(ctx); err == nil {
			m.Tick(now)
		}
	}
	return err
}
