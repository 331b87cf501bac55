package message

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"meerkat/internal/timestamp"
)

// The binary format is flat little-endian: the type byte, then the fields its
// layout row names, in walk's order; strings, byte fields and repeated fields
// carry a uvarint length prefix. A field the row leaves out costs no byte and
// decodes as zero. Only this package reads the format, on the wire and in the
// write-ahead log, so the type byte is its only version: a type whose row
// changes takes a new number.

// ErrTruncated is returned by Decode when the buffer ends mid-message.
var ErrTruncated = errors.New("message: truncated buffer")

// field is one bit of a layout row: a field of Message, or for fRoute the two
// shard-routing fields, MapVersion and WrongShard, which travel together.
type field uint32

const (
	fSrc field = 1 << iota
	fTxn
	fTID
	fTS
	fStatus
	fView
	fCoreID
	fKey
	fValue
	fOK
	fEpoch
	fRecords
	fSeq
	fState
	fReplicaID
	fKeys
	fReads
	fWatermark
	fRoute
)

// layout is the one description of what each type carries; a type it does not
// name carries its type byte. A row names what its type's odd slots mean.
var layout = [256]field{
	TypeValidate:      fSrc | fTxn | fTID | fTS | fCoreID | fRoute,
	TypeValidateReply: fSrc | fTID | fStatus | fView | fReplicaID | fRoute,
	TypeAccept:        fSrc | fTxn | fTID | fTS | fStatus | fView | fCoreID,
	TypeAcceptReply:   fSrc | fTID | fStatus | fView | fOK | fReplicaID,
	TypeCommit:        fSrc | fTID | fStatus | fCoreID,

	TypeCoordChange:    fSrc | fTID | fView | fCoreID,
	TypeCoordChangeAck: fSrc | fTID | fView | fOK | fRecords | fReplicaID,
	TypeEpochChange:    fSrc | fEpoch,
	// OK: Records is the core's whole record, so it is evidence for the merge.
	TypeEpochChangeAck:         fSrc | fEpoch | fOK | fRecords | fReplicaID | fCoreID,
	TypeEpochChangeComplete:    fSrc | fEpoch | fRecords,
	TypeEpochChangeCompleteAck: fSrc | fEpoch | fReplicaID | fCoreID,
	// View: SinceWall, the donor-side apply-time bound; Seq: the shard; a
	// non-zero TS: ship only keys whose WTS or RTS passed it.
	TypeStateRequest: fSrc | fTS | fView | fSeq,
	// Seq: the shard served; OK: more shards remain.
	TypeStateReply: fSrc | fOK | fSeq | fState | fReplicaID,

	// A non-zero TS: a snapshot read at TS. Seq: the reader's round, echoed.
	TypeMultiRead:      fSrc | fTS | fSeq | fKeys | fRoute,
	TypeMultiReadReply: fSrc | fSeq | fReplicaID | fReads | fWatermark | fRoute,

	TypePBSubmit: fSrc | fTxn | fTS | fCoreID,
	// OK: the transaction committed.
	TypePBReply: fSrc | fTID | fOK,
	// A committed Txn's identity and writes at TS; KuaFu++ also names its log
	// position (Seq).
	TypePBReplicate: fSrc | fTxn | fTS | fSeq,
	TypePBAck:       fSrc | fTID | fSeq | fReplicaID,

	// Seq: the client's request number, echoed.
	TypePut:      fSrc | fKey | fValue | fSeq,
	TypePutReply: fSrc | fSeq,
	// Sent by a core to itself, through its endpoint, which stamps Src.
	TypeSweep: fSrc,

	TypeWALRecord: fTxn | fTS,
	// Seq: the shard the page exports.
	TypeWALSnapshot: fSeq | fState,
}

// The least an element of each repeated field takes on the wire: its fixed
// fields plus one byte per length or count prefix.
const (
	minKey      = 1
	minWrite    = 1 + 1
	minOp       = 1 + 1 + 8 + 1
	minRead     = 1 + 16 + 8
	minRecord   = 16 + 3 + 16 + 1 + 8 + 8 + 4 // an empty Txn, then the record's own
	minKeyState = 1 + 1 + 16 + 16
	minResult   = 1 + 16 + 1 + 1
)

// coder codes a message one way: an encode appends to buf, a decode reads buf
// (the message's arena) from off. Each primitive takes a pointer and branches on
// the direction, so walk lists the format once. An encode only reads through
// its pointers: broadcast copies share Txn arrays, so even writing back the
// value just read would race.
type coder struct {
	buf []byte
	off int
	dec bool
	all bool // every field, whatever the row (checkRow)
	err error
}

// next consumes the next n bytes of the input, or fails and returns nil.
func (c *coder) next(n int) []byte {
	if c.err == nil && n > len(c.buf)-c.off {
		c.err = ErrTruncated
	}
	if c.err != nil {
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off : c.off]
}

func (c *coder) u8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.next(1); b != nil {
		*v = b[0]
	}
}

func (c *coder) u32(v *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.next(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

func (c *coder) u64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.next(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

func (c *coder) i64(v *int64) {
	u := uint64(*v)
	c.u64(&u)
	if c.dec {
		*v = int64(u)
	}
}

func (c *coder) flag(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	if c.dec {
		*v = b != 0
	}
}

func (c *coder) ts(t *timestamp.Timestamp) {
	c.i64(&t.Time)
	c.u64(&t.ClientID)
}

func (c *coder) tid(id *timestamp.TxnID) {
	c.u64(&id.Seq)
	c.u64(&id.ClientID)
}

// count codes a length prefix and returns the length: n, or the one read,
// failing unless that many elements of at least min bytes can still follow — a
// corrupt prefix cannot size an array the input could not fill.
func (c *coder) count(n, min int) int {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(n))
		return n
	}
	v, k := binary.Uvarint(c.buf[c.off:])
	if c.err == nil && (k <= 0 || v > uint64((len(c.buf)-c.off-k)/min)) {
		c.err = ErrTruncated
	}
	if c.err != nil {
		return 0
	}
	c.off += k
	return int(v)
}

// str codes a string; a decode cuts it from the arena (arena.go).
func (c *coder) str(s *string) {
	if n := c.count(len(*s), 1); !c.dec {
		c.buf = append(c.buf, *s...)
	} else {
		*s = cut(c.next(n))
	}
}

// span codes a byte field; a decode cuts it from the arena capacity-capped, so
// an append cannot reach the next field, and an empty one as nil.
func (c *coder) span(b *[]byte) {
	if n := c.count(len(*b), 1); !c.dec {
		c.buf = append(c.buf, *b...)
	} else if *b = c.next(n); n == 0 {
		*b = nil
	}
}

// elems codes a repeated field's count and returns its elements: *s, or on a
// decode the count read of slots of *kept — an array the message owns, or a new
// one where kept points at nil (DecodeInto emptied the message first).
func elems[T any](c *coder, s *[]T, min int, kept *[]T) []T {
	if n := c.count(len(*s), min); c.dec && n > 0 {
		*kept, *s = own(*kept, n)
	}
	return *s
}

// txn codes t; a decode fills its sets into the arrays o keeps.
func (c *coder) txn(t *Txn, o *owned) {
	c.tid(&t.ID)
	for i := range elems(c, &t.ReadSet, minRead, &o.readSet) {
		r := &t.ReadSet[i]
		c.str(&r.Key)
		c.ts(&r.WTS)
		c.u64(&r.VHash)
	}
	for i := range elems(c, &t.WriteSet, minWrite, &o.writeSet) {
		w := &t.WriteSet[i]
		c.str(&w.Key)
		c.span(&w.Value)
	}
	for i := range elems(c, &t.OpSet, minOp, &o.opSet) {
		op := &t.OpSet[i]
		c.str(&op.Key)
		c.u8((*uint8)(&op.Kind))
		c.i64(&op.Delta)
		c.span(&op.Arg)
	}
}

// walk codes m's type byte, then its row's fields: the one list of the format.
func (c *coder) walk(m *Message) {
	c.u8((*uint8)(&m.Type))
	row := layout[m.Type]
	if c.all {
		row = ^field(0)
	}
	if row&fSrc != 0 {
		c.u32(&m.Src.Node)
		c.u32(&m.Src.Core)
	}
	if row&fTxn != 0 {
		c.txn(&m.Txn, &m.owned)
	}
	if row&fTID != 0 {
		c.tid(&m.TID)
	}
	if row&fTS != 0 {
		c.ts(&m.TS)
	}
	if row&fStatus != 0 {
		c.u8((*uint8)(&m.Status))
	}
	if row&fView != 0 {
		c.u64(&m.View)
	}
	if row&fCoreID != 0 {
		c.u32(&m.CoreID)
	}
	if row&fKey != 0 {
		c.str(&m.Key)
	}
	if row&fValue != 0 {
		c.span(&m.Value)
	}
	if row&fOK != 0 {
		c.flag(&m.OK)
	}
	if row&fEpoch != 0 {
		c.u64(&m.Epoch)
	}
	if row&fRecords != 0 {
		for i := range elems(c, &m.Records, minRecord, new([]TRecordEntry)) {
			r := &m.Records[i]
			c.txn(&r.Txn, &owned{}) // a record keeps its sets: arrays of its own
			c.ts(&r.TS)
			c.u8((*uint8)(&r.Status))
			c.u64(&r.View)
			c.u64(&r.AcceptView)
			c.u32(&r.CoreID)
		}
	}
	if row&fSeq != 0 {
		c.u64(&m.Seq)
	}
	if row&fState != 0 {
		for i := range elems(c, &m.State, minKeyState, new([]KeyState)) {
			ks := &m.State[i]
			c.str(&ks.Key)
			c.span(&ks.Value)
			c.ts(&ks.WTS)
			c.ts(&ks.RTS)
		}
	}
	if row&fReplicaID != 0 {
		c.u32(&m.ReplicaID)
	}
	if row&fKeys != 0 {
		if n := c.count(len(m.Keys), minKey); c.dec {
			m.OwnKeys(n)
		}
		for i := range m.Keys {
			c.str(&m.Keys[i])
		}
	}
	if row&fReads != 0 {
		if n := c.count(len(m.Reads), minResult); c.dec {
			m.OwnReads(n)
		}
		for i := range m.Reads {
			r := &m.Reads[i]
			c.span(&r.Value)
			c.ts(&r.WTS)
			c.flag(&r.OK)
			c.u8((*uint8)(&r.Op))
		}
	}
	if row&fWatermark != 0 {
		c.ts(&m.Watermark)
	}
	if row&fRoute != 0 {
		c.u64(&m.MapVersion)
		c.flag(&m.WrongShard)
	}
}

// Encode appends the wire encoding of m to buf and returns the extended
// slice. Pass nil to allocate a fresh buffer.
func Encode(buf []byte, m *Message) []byte {
	c := coder{buf: buf}
	c.walk(m)
	if poisonOnRelease.Load() {
		checkRow(m, c.buf[len(buf):])
	}
	return c.buf
}

// checkRow panics, naming m's type, if m carries a field its row leaves out,
// which no receiver would see: under the SetPoisonOnRelease test hook, every
// field of m must equal that of the message its encoding decodes to.
func checkRow(m *Message, wire []byte) {
	sent, got := coder{all: true}, coder{all: true}
	sent.walk(m)
	if back, err := Decode(wire); err == nil {
		got.walk(back)
	}
	if !bytes.Equal(sent.buf, got.buf) {
		panic(fmt.Sprintf("message: a %v carries a field its layout drops", m.Type))
	}
}

// Decode parses one message from buf into a fresh Message, whose arena is the
// collector's for as long as nobody releases it. Trailing bytes are an error, so
// framing bugs surface immediately rather than as silent field corruption.
func Decode(buf []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses one message from buf into m, overwriting every field: one
// the type's row leaves out is zero, whatever m held. It copies buf into m's
// arena once, cuts every key and value from there, and reuses the arena and the
// Keys, Reads and set arrays m kept, so a multi-read, a validate or their
// replies decode without allocating. Everything decoded dies at m's release or
// next decode (arena.go). On error m is unspecified but for Type, which a
// non-empty buf always sets. Trailing bytes are an error, as in Decode.
func DecodeInto(m *Message, buf []byte) error {
	m.reset()
	m.arena = append(m.arena, buf...)
	c := coder{buf: m.arena, dec: true}
	c.walk(m)
	if c.err != nil {
		return c.err
	}
	if c.off != len(buf) {
		return fmt.Errorf("message: %d trailing bytes", len(buf)-c.off)
	}
	return nil
}
