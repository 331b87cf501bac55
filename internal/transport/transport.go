// Package transport delivers protocol messages between nodes and cores.
//
// It provides two implementations of the same interface:
//
//   - Inproc: an in-process network with one delivery queue per server
//     (node, core) endpoint, standing in for the paper's eRPC kernel-bypass
//     stack. A send is a direct hand-off into the destination core's queue,
//     or into a client's handler — no serialization, no syscalls — so
//     per-message cost is low enough to expose application-level
//     coordination bottlenecks, exactly the regime Figure 1 of the paper
//     demonstrates.
//
//   - UDP: a real loopback UDP transport on stdlib net, standing in for the
//     paper's traditional Linux UDP stack. Messages pay full binary
//     serialization and kernel socket costs.
//
// Core-level addressing reproduces the paper's NIC flow steering: the
// coordinator picks a core id for each transaction and every message for
// that transaction is delivered to that core's queue, keeping the trecord
// partition single-core-private.
package transport

import (
	"errors"

	"meerkat/internal/clock"
	"meerkat/internal/message"
)

// Handler processes one inbound message. For a server endpoint (the address
// plan's nodes below topo.ClientNodeBase) the handler runs on the endpoint's
// dedicated delivery goroutine — the analogue of a server thread polling its
// NIC receive queue — so handlers for one core never run concurrently with
// each other.
//
// A client endpoint's handler has no goroutine of its own: on inproc it is
// called on a sender's goroutine, concurrently with itself, and it must never
// block — it holds up a replica core. Inbox.Handle and the coordinator's
// session router are the only two.
//
// The handler owns m: nothing else holds a reference, so it may pass m on
// (an Inbox does) or, once it has read it and taken out whatever payload it
// keeps — copying what a decoded message holds in its own arena and arrays
// (message.TakeTxn, message.Disown) — recycle it with message.ReleaseMessage.
// Releasing is optional.
type Handler func(m *message.Message)

// Outgoing pairs one message with its destination, for batched sends.
type Outgoing struct {
	Dst message.Addr
	M   *message.Message
}

// Endpoint is a bound (node, core) address that can send messages.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() message.Addr
	// Send delivers m to the endpoint at dst, asynchronously and
	// unreliably: the message may be dropped, delayed, or reordered (a full
	// ring, a real kernel, or internal/faultnet wrapped around either).
	// The transport stamps m.Src before delivery. Send transfers ownership
	// of m to the transport, delivered or not: the caller must not touch
	// the struct again — not even to read it or to send it a second time
	// — because the receiver (inproc) or the transport itself (after
	// encoding, or on a drop) recycles it. Slices m carried stay the
	// caller's to read; nobody writes into them. A transport may briefly
	// coalesce a Send with neighbouring sends (see SendBatch); Flush
	// forces anything buffered onto the wire.
	Send(dst message.Addr, m *message.Message) error
	// SendBatch sends every message in batch, amortizing per-boundary
	// costs (syscalls on a real wire) across the batch where the
	// transport supports it. The messages are consumed during the call:
	// the transport either serializes or hands them off before
	// returning, so the caller may reuse the batch slice immediately —
	// but, as with Send, no longer owns the messages themselves.
	// Equivalent to calling Send once per element; the same delivery
	// guarantees (none) apply.
	SendBatch(batch []Outgoing) error
	// Flush forces out anything the transport has buffered but not yet
	// put on the wire. Transports that buffer nothing return nil
	// immediately. Send/SendBatch self-flush when their internal ring
	// fills, so Flush is a latency bound, not a correctness requirement.
	Flush() error
	// Close unbinds the endpoint. A server endpoint's Close joins its
	// delivery goroutine: it returns only once the handler can no longer
	// run, so a handler must not close its own endpoint. A client
	// endpoint's joins nothing: a send that starts after Close is dropped
	// and counted, but one that raced it may still land in a mailbox
	// nobody reads. Fencing every reply against Close would put a shared
	// counter back on the hot path.
	Close() error
}

// Network creates endpoints sharing one message fabric — and one clock: a
// party waits, ages its records and paces its background work on the clock of
// the fabric it is attached to, so a deployment has exactly one.
type Network interface {
	// Listen binds addr and dispatches inbound messages to h.
	Listen(addr message.Addr, h Handler) (Endpoint, error)
	// Clock is the deployment's clock.
	Clock() clock.Clock
	// Close shuts down the network and all endpoints, and returns once no
	// server handler is running or will run again (see Endpoint.Close).
	Close() error
}

// Errors shared by the implementations.
var (
	ErrClosed    = errors.New("transport: closed")
	ErrAddrInUse = errors.New("transport: address already bound")
)
