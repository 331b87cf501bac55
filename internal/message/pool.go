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

// maxPooledEncoderCap bounds the buffer capacity an Encoder may carry back
// into the pool, so one huge state-transfer encoding does not pin its buffer
// for the rest of the process lifetime.
const maxPooledEncoderCap = 64 << 10

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
// The whole struct is zeroed, slice headers included: a recycled message
// never carries a slice anyone else can still reach. The arrays a released
// message pointed at belong to whoever moved them out (a trecord, a read
// result) or to the collector, never to the next sender.
func ReleaseMessage(m *Message) {
	if m == nil {
		return
	}
	if poisonOnRelease.Load() {
		if m.Type == typePoisoned && m.TID == PoisonTID {
			panic("message: double release")
		}
		*m = Message{Type: typePoisoned, TID: PoisonTID}
		return
	}
	*m = Message{}
	messagePool.Put(m)
}

// typePoisoned marks a message released in poison mode; no handler
// dispatches on it.
const typePoisoned Type = 0xff

// PoisonTID is the transaction id a poisoned message carries, chosen so that
// a use-after-release matches no live transaction.
var PoisonTID = timestamp.TxnID{Seq: ^uint64(0), ClientID: ^uint64(0)}

var poisonOnRelease atomic.Bool

// SetPoisonOnRelease is a test hook that makes use-after-release loud:
// while on, ReleaseMessage overwrites the struct with an invalid Type, the
// PoisonTID sentinel and nil slices instead of pooling it, and panics on a
// second release. A stale reader then sees garbage that matches nothing (and
// the race detector sees the overwrite) instead of a plausible recycled
// message. It reports the previous setting.
func SetPoisonOnRelease(on bool) (was bool) { return poisonOnRelease.Swap(on) }

// Reset clears m for reuse, keeping top-level slice capacity so the next
// DecodeInto or rebuild does not reallocate its sets. Only for a message
// that provably owns every slice it carries — a codec round-trip buffer, a
// log's scratch record — never for one that crossed a transport, whose
// slices its sender or receiver may still hold.
func (m *Message) Reset() {
	rs, ws, ops := m.Txn.ReadSet[:0], m.Txn.WriteSet[:0], m.Txn.OpSet[:0]
	recs, ents, sts := m.Records[:0], m.Entries[:0], m.State[:0]
	keys, reads := m.Keys[:0], m.Reads[:0]
	val := m.Value[:0]
	*m = Message{}
	m.Txn.ReadSet, m.Txn.WriteSet, m.Txn.OpSet = rs, ws, ops
	m.Records, m.Entries, m.State = recs, ents, sts
	m.Keys, m.Reads = keys, reads
	m.Value = val
}
