package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"meerkat/internal/timestamp"
)

// The binary wire format is a flat little-endian encoding. Every field of
// Message is encoded unconditionally; slices and strings carry a uvarint
// length prefix. The format is only consumed by this package, so there is no
// versioning beyond the leading type byte.

// ErrTruncated is returned by Decode when the buffer ends mid-message.
var ErrTruncated = errors.New("message: truncated buffer")

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) ts(t timestamp.Timestamp) {
	e.i64(t.Time)
	e.u64(t.ClientID)
}
func (e *encoder) tid(id timestamp.TxnID) {
	e.u64(id.Seq)
	e.u64(id.ClientID)
}
func (e *encoder) txn(t *Txn) {
	e.tid(t.ID)
	e.uvarint(uint64(len(t.ReadSet)))
	for i := range t.ReadSet {
		e.str(t.ReadSet[i].Key)
		e.ts(t.ReadSet[i].WTS)
		e.u64(t.ReadSet[i].VHash)
	}
	e.uvarint(uint64(len(t.WriteSet)))
	for i := range t.WriteSet {
		e.str(t.WriteSet[i].Key)
		e.bytes(t.WriteSet[i].Value)
	}
	e.uvarint(uint64(len(t.OpSet)))
	for i := range t.OpSet {
		e.str(t.OpSet[i].Key)
		e.u8(uint8(t.OpSet[i].Kind))
		e.i64(t.OpSet[i].Delta)
		e.bytes(t.OpSet[i].Arg)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// length reads a uvarint length prefix and bounds-checks it against the
// remaining buffer so a corrupt prefix cannot force a huge allocation.
func (d *decoder) length() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.length()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// bytes decodes a length-prefixed byte slice into dst, reusing dst's
// capacity when it suffices. An empty field decodes as nil, so round trips
// preserve nil-ness.
func (d *decoder) bytes(dst []byte) []byte {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]byte, n)
	}
	copy(dst, d.buf[d.off:d.off+n])
	d.off += n
	return dst
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) ts() timestamp.Timestamp {
	t := d.i64()
	c := d.u64()
	return timestamp.Timestamp{Time: t, ClientID: c}
}

func (d *decoder) tid() timestamp.TxnID {
	s := d.u64()
	c := d.u64()
	return timestamp.TxnID{Seq: s, ClientID: c}
}

// grow resizes s to n elements, reusing its backing array when the capacity
// suffices. n == 0 yields nil so decoded empty slices stay nil, matching the
// encoder's treatment of empty fields.
func grow[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// txn decodes a transaction into t, reusing t's read/write-set capacity.
func (d *decoder) txn(t *Txn) {
	t.ID = d.tid()
	n := d.length()
	if d.err != nil {
		n = 0
	}
	t.ReadSet = grow(t.ReadSet, n)
	for i := 0; i < n && d.err == nil; i++ {
		t.ReadSet[i].Key = d.str()
		t.ReadSet[i].WTS = d.ts()
		t.ReadSet[i].VHash = d.u64()
	}
	n = d.length()
	if d.err != nil {
		n = 0
	}
	t.WriteSet = grow(t.WriteSet, n)
	for i := 0; i < n && d.err == nil; i++ {
		t.WriteSet[i].Key = d.str()
		t.WriteSet[i].Value = d.bytes(t.WriteSet[i].Value)
	}
	n = d.length()
	if d.err != nil {
		n = 0
	}
	t.OpSet = grow(t.OpSet, n)
	for i := 0; i < n && d.err == nil; i++ {
		t.OpSet[i].Key = d.str()
		t.OpSet[i].Kind = OpKind(d.u8())
		t.OpSet[i].Delta = d.i64()
		t.OpSet[i].Arg = d.bytes(t.OpSet[i].Arg)
	}
}

// Encode appends the wire encoding of m to buf and returns the extended
// slice. Pass nil to allocate a fresh buffer.
func Encode(buf []byte, m *Message) []byte {
	e := encoder{buf: buf}
	e.u8(uint8(m.Type))
	e.u32(m.Src.Node)
	e.u32(m.Src.Core)
	e.txn(&m.Txn)
	e.tid(m.TID)
	e.ts(m.TS)
	e.u8(uint8(m.Status))
	e.u64(m.View)
	e.u32(m.CoreID)
	e.str(m.Key)
	e.bytes(m.Value)
	e.bool(m.OK)
	e.u64(m.Epoch)
	e.uvarint(uint64(len(m.Records)))
	for i := range m.Records {
		r := &m.Records[i]
		e.txn(&r.Txn)
		e.ts(r.TS)
		e.u8(uint8(r.Status))
		e.u64(r.View)
		e.u64(r.AcceptView)
		e.u32(r.CoreID)
	}
	e.u64(m.Seq)
	e.uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		le := &m.Entries[i]
		e.u64(le.Seq)
		e.tid(le.TID)
		e.ts(le.TS)
		e.uvarint(uint64(len(le.WriteSet)))
		for j := range le.WriteSet {
			e.str(le.WriteSet[j].Key)
			e.bytes(le.WriteSet[j].Value)
		}
	}
	e.uvarint(uint64(len(m.State)))
	for i := range m.State {
		ks := &m.State[i]
		e.str(ks.Key)
		e.bytes(ks.Value)
		e.ts(ks.WTS)
		e.ts(ks.RTS)
	}
	e.u32(m.ReplicaID)
	e.uvarint(uint64(len(m.Keys)))
	for i := range m.Keys {
		e.str(m.Keys[i])
	}
	e.uvarint(uint64(len(m.Reads)))
	for i := range m.Reads {
		r := &m.Reads[i]
		e.bytes(r.Value)
		e.ts(r.WTS)
		e.bool(r.OK)
		e.u8(uint8(r.Op))
	}
	e.ts(m.Watermark)
	e.u64(m.MapVersion)
	e.bool(m.WrongShard)
	return e.buf
}

// Decode parses one message from buf. Trailing bytes are an error, so framing
// bugs surface immediately rather than as silent field corruption.
func Decode(buf []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses one message from buf into m, overwriting every field and
// reusing m's slice capacity where it suffices — a Message reused across a
// receive loop decodes without reallocating its sets, and one recycled through
// the pool decodes Keys and Reads into the arrays it kept (OwnKeys, OwnReads).
// On error m's contents are unspecified. Trailing bytes are an error, as in
// Decode.
func DecodeInto(m *Message, buf []byte) error {
	d := decoder{buf: buf}
	m.Type = Type(d.u8())
	m.Src.Node = d.u32()
	m.Src.Core = d.u32()
	d.txn(&m.Txn)
	m.TID = d.tid()
	m.TS = d.ts()
	m.Status = Status(d.u8())
	m.View = d.u64()
	m.CoreID = d.u32()
	m.Key = d.str()
	m.Value = d.bytes(m.Value)
	m.OK = d.bool()
	m.Epoch = d.u64()
	n := d.length()
	if d.err != nil {
		n = 0
	}
	m.Records = grow(m.Records, n)
	for i := 0; i < n && d.err == nil; i++ {
		r := &m.Records[i]
		d.txn(&r.Txn)
		r.TS = d.ts()
		r.Status = Status(d.u8())
		r.View = d.u64()
		r.AcceptView = d.u64()
		r.CoreID = d.u32()
	}
	m.Seq = d.u64()
	n = d.length()
	if d.err != nil {
		n = 0
	}
	m.Entries = grow(m.Entries, n)
	for i := 0; i < n && d.err == nil; i++ {
		le := &m.Entries[i]
		le.Seq = d.u64()
		le.TID = d.tid()
		le.TS = d.ts()
		wn := d.length()
		if d.err != nil {
			wn = 0
		}
		le.WriteSet = grow(le.WriteSet, wn)
		for j := 0; j < wn && d.err == nil; j++ {
			le.WriteSet[j].Key = d.str()
			le.WriteSet[j].Value = d.bytes(le.WriteSet[j].Value)
		}
	}
	n = d.length()
	if d.err != nil {
		n = 0
	}
	m.State = grow(m.State, n)
	for i := 0; i < n && d.err == nil; i++ {
		ks := &m.State[i]
		ks.Key = d.str()
		ks.Value = d.bytes(ks.Value)
		ks.WTS = d.ts()
		ks.RTS = d.ts()
	}
	m.ReplicaID = d.u32()
	n = d.length()
	if d.err != nil {
		n = 0
	}
	keys := m.OwnKeys(n)
	for i := 0; i < n && d.err == nil; i++ {
		keys[i] = d.str()
	}
	n = d.length()
	if d.err != nil {
		n = 0
	}
	reads := m.OwnReads(n)
	for i := 0; i < n && d.err == nil; i++ {
		r := &reads[i]
		r.Value = d.bytes(r.Value)
		r.WTS = d.ts()
		r.OK = d.bool()
		r.Op = OpKind(d.u8())
	}
	m.Watermark = d.ts()
	m.MapVersion = d.u64()
	m.WrongShard = d.bool()
	if d.err != nil {
		return d.err
	}
	if d.off != len(buf) {
		return fmt.Errorf("message: %d trailing bytes", len(buf)-d.off)
	}
	return nil
}
