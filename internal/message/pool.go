package message

import (
	"sync"
	"sync/atomic"

	"meerkat/internal/timestamp"
)

// Hot-path pooling. Encoding a message for the UDP transport needs a
// transient buffer whose lifetime ends the moment the datagram is handed to
// the kernel, and every Message struct is garbage the instant its final
// consumer has read it. Both cycle through sync.Pools here instead of the
// allocator, so a steady-state request/reply exchange feeds the collector no
// message structs at all. The ownership contract is DESIGN.md §7.

// maxPooledEncoderCap bounds the buffer capacity an Encoder — or a Message, as
// its arena — may carry back into the pool, so one huge state-transfer encoding
// does not pin its buffer for the rest of the process lifetime. maxPooledSlots
// bounds a Message's Keys, Reads and set arrays likewise: a 64 KiB datagram of
// one-byte keys decodes into some 65 000 of them (1 MB of string headers),
// while a hot-path multi-read carries a handful.
const (
	maxPooledEncoderCap = 64 << 10
	maxPooledSlots      = 1024
)

// Encoder is a reusable encode buffer with acquire/release semantics. The
// zero value is usable; AcquireEncoder avoids even the Encoder allocation.
type Encoder struct {
	buf []byte
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// AcquireEncoder returns a pooled Encoder. Pair with Release.
func AcquireEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// EncodeInto encodes m, replacing the encoder's previous contents, and
// returns the encoded bytes. The bytes alias the encoder's internal buffer:
// they are valid only until the next EncodeInto or Release and must not be
// retained past either.
func (e *Encoder) EncodeInto(m *Message) []byte {
	e.buf = Encode(e.buf[:0], m)
	return e.buf
}

// Bytes returns the most recently encoded contents.
func (e *Encoder) Bytes() []byte { return e.buf }

// Release returns the encoder to the pool, invalidating any bytes previously
// returned by EncodeInto. Oversized buffers are dropped rather than pooled.
func (e *Encoder) Release() {
	if cap(e.buf) > maxPooledEncoderCap {
		e.buf = nil
	}
	encoderPool.Put(e)
}

var messagePool = sync.Pool{New: func() any { return new(Message) }}

// AcquireMessage returns a zeroed Message from the pool. The caller owns it
// until it hands it to a transport (Send/SendBatch transfer ownership) or
// releases it.
func AcquireMessage() *Message { return messagePool.Get().(*Message) }

// ReleaseMessage zeroes m and returns it to the pool. Only a message's sole
// owner may release it: the last handler a transport delivered it to, the
// coordinator once it has consumed a reply, or a transport that dropped it.
// Release is an optimisation, never an obligation — an unreleased message is
// merely collected — so messages built as plain literals may be sent and may
// be released like any other. Releasing nil is a no-op.
//
// Every exported field is zeroed, slice headers included: a recycled message
// never carries a slice anyone else can still reach. The arrays it pointed at
// stay with whoever put them there, or go to the collector, never to the next
// sender — except what the message owns (owned), which it keeps for its next
// use, emptied of every pointer and only up to its bound. Whoever wants a key,
// a value, a set entry or a read result past the release copies it out: the
// element out of the array, the bytes out of the arena (arena.go).
func ReleaseMessage(m *Message) {
	if m == nil {
		return
	}
	if poisonOnRelease.Load() {
		if m.Type == typePoisoned && m.TID == PoisonTID {
			panic("message: double release")
		}
		m.owned.poison()
		*m = Message{Type: typePoisoned, TID: PoisonTID}
		return
	}
	m.reset()
	messagePool.Put(m)
}

// reset zeroes m in place but for what it owns, emptied for m's next use.
func (m *Message) reset() {
	o := m.owned
	o.empty()
	*m = Message{}
	m.owned = o
}

// empty readies o for the message's next use: every array cut to length 0 and
// emptied of its pointers (own keeps those past the length empty), and one past
// its bound (maxPooledSlots, maxPooledEncoderCap) left to the collector.
func (o *owned) empty() {
	emptyArray(&o.keys)
	emptyArray(&o.reads)
	emptyArray(&o.readSet)
	emptyArray(&o.writeSet)
	emptyArray(&o.opSet)
	if cap(o.arena) > maxPooledEncoderCap {
		o.arena = nil
	}
	o.arena = o.arena[:0]
}

// emptyArray empties *buf, writing it only if there is something to empty.
func emptyArray[T any](buf *[]T) {
	switch {
	case cap(*buf) > maxPooledSlots:
		*buf = nil
	case len(*buf) > 0:
		clear(*buf)
		*buf = (*buf)[:0]
	}
}

// poison overwrites what o owns, so a reader who kept any of it past the
// release sees garbage that matches nothing: the arena's bytes, and the set
// entries a keeper aliased instead of copying (a key, and a read's version).
func (o *owned) poison() {
	for i := range o.arena {
		o.arena[i] = poisonByte
	}
	for i := range o.readSet {
		o.readSet[i] = ReadSetEntry{Key: poisonKey, WTS: poisonTS}
	}
	for i := range o.writeSet {
		o.writeSet[i] = WriteSetEntry{Key: poisonKey}
	}
	for i := range o.opSet {
		o.opSet[i] = OpSetEntry{Key: poisonKey}
	}
}

// own resizes buf, an array a message owns, to n slots and returns it twice:
// to keep, and as the view to publish — nil when empty, as the codec has it,
// and capped, so an append cannot reach the slots past it. Slots below n keep
// what they held, for the caller to overwrite; slots past n are emptied, so a
// release need only clear its length.
func own[T any](buf []T, n int) (kept, view []T) {
	switch {
	case n > cap(buf):
		buf = make([]T, n)
	case n < len(buf):
		clear(buf[n:])
	}
	if buf = buf[:n]; n == 0 {
		return buf, nil
	}
	return buf, buf[:n:n]
}

// OwnKeys makes m.Keys n slots of an array the message owns and keeps across
// ReleaseMessage, and returns them for the caller to fill, every one.
func (m *Message) OwnKeys(n int) []string {
	m.keys, m.Keys = own(m.keys, n)
	return m.Keys
}

// OwnReads is OwnKeys for m.Reads.
func (m *Message) OwnReads(n int) []ReadResult {
	m.reads, m.Reads = own(m.reads, n)
	return m.Reads
}

// CopyFrom makes m a second message with src's contents, for a sender that
// hands one request to several receivers. The copy shares src's Txn sets and
// the bytes its values point at, which no receiver writes, but carries Keys
// and Reads in arrays of its own: each receiver releases, and thereby
// empties, the arrays of the message it was given.
//
// src must not own its bytes: a copy of a decoded message would point into an
// arena that dies at src's release. Every caller is a sender duplicating what
// it built (link.broadcast's template, faultnet on the send side); nothing
// forwards a message it received, and whoever comes to would Disown it first.
func (m *Message) CopyFrom(src *Message) {
	if src.OwnsBytes() {
		panic("message: CopyFrom of a decoded message that still owns its bytes")
	}
	o := m.owned
	*m = *src
	m.owned = o
	m.arena = m.arena[:0]
	copy(m.OwnKeys(len(src.Keys)), src.Keys)
	copy(m.OwnReads(len(src.Reads)), src.Reads)
}

// typePoisoned marks a message released in poison mode; no handler
// dispatches on it. poisonByte is what its arena is overwritten with, and
// poisonKey and poisonTS what its set entries are.
const (
	typePoisoned Type = 0xff
	poisonByte        = 0xDB
	poisonKey         = "\xDB\xDB\xDB\xDB\xDB\xDB\xDB\xDB"
)

var poisonTS = timestamp.Timestamp{Time: -1, ClientID: ^uint64(0)}

// PoisonTID is the transaction id a poisoned message carries, chosen so that
// a use-after-release matches no live transaction.
var PoisonTID = timestamp.TxnID{Seq: ^uint64(0), ClientID: ^uint64(0)}

var poisonOnRelease atomic.Bool

// SetPoisonOnRelease is a test hook that makes use-after-release loud:
// while on, ReleaseMessage overwrites the arena with 0xDB bytes, every set
// entry the message decoded with poisonKey and poisonTS, and the struct
// with an invalid Type, the PoisonTID sentinel and nil slices instead of
// pooling either, and panics on a second release. A stale reader then sees
// garbage that matches nothing (and the race detector sees the overwrite)
// instead of a plausible recycled message or a plausible key. It reports the
// previous setting.
func SetPoisonOnRelease(on bool) (was bool) { return poisonOnRelease.Swap(on) }
