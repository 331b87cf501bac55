package message

import "unsafe"

// A decoded message's bytes. DecodeInto copies the datagram into the message's
// arena once and cuts every key as a string over it and every value and op
// argument as a capacity-capped span of it, so decoding allocates nothing per
// key or value. What is cut dies with the arena — at the message's release or
// its next decode — and whoever keeps any of it copies it first, once,
// compactly, into memory the collector owns (DESIGN.md §7 rule 5): TakeTxn for a
// transaction body, strings.Clone or a round's own buffer for single keys and
// values, Disown for a cold path that keeps a whole message's worth.
//
// This is the one file of the package that imports unsafe: a string over bytes
// that are later rewritten is exactly what the language forbids, and the
// lifetime rule above is what makes it sound.

// cut returns b as a string that shares b's memory.
func cut(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// OwnsBytes reports whether the keys and values m carries are cut from its own
// arena — m was decoded — and so die at its release. A message a sender built
// points at someone else's immutable memory instead (a bump-chunk span, a
// caller's value, a version node), which a keeper may go on aliasing.
func (m *Message) OwnsBytes() bool { return len(m.arena) > 0 }

// Disown leaves m's arena to the collector: everything cut from it stays valid
// for as long as anyone holds it, and m answers OwnsBytes false from here on.
// It is how a cold path keeps what a decoded message carries — records of an
// epoch change, a page of state — without walking it; the price is that one
// kept key pins the whole datagram's image.
func (m *Message) Disown() { m.arena = nil }

// TakeTxn moves the transaction body out of m for a holder that outlives m's
// release (a trecord). The set arrays change hands either way. The bytes of a
// message a sender built stay where they are, aliased as before; those of a
// decoded one are cloned — keys, values and op arguments — into one exact-size
// allocation and the entries re-cut over it, so the holder pins a compact,
// immutable body of its own and not the datagram's image.
func (m *Message) TakeTxn() Txn {
	t := m.Txn
	m.Txn = Txn{}
	if !m.OwnsBytes() {
		return t
	}
	n := 0
	for i := range t.ReadSet {
		n += len(t.ReadSet[i].Key)
	}
	for i := range t.WriteSet {
		n += len(t.WriteSet[i].Key) + len(t.WriteSet[i].Value)
	}
	for i := range t.OpSet {
		n += len(t.OpSet[i].Key) + len(t.OpSet[i].Arg)
	}
	b := body(make([]byte, 0, n))
	for i := range t.ReadSet {
		t.ReadSet[i].Key = b.str(t.ReadSet[i].Key)
	}
	for i := range t.WriteSet {
		t.WriteSet[i].Key = b.str(t.WriteSet[i].Key)
		t.WriteSet[i].Value = b.bytes(t.WriteSet[i].Value)
	}
	for i := range t.OpSet {
		t.OpSet[i].Key = b.str(t.OpSet[i].Key)
		t.OpSet[i].Arg = b.bytes(t.OpSet[i].Arg)
	}
	return t
}

// body is a record body being filled: sized exactly by its caller, so an append
// never moves it and every span handed out stays part of the one allocation.
type body []byte

func (b *body) str(s string) string {
	*b = append(*b, s...)
	return cut((*b)[len(*b)-len(s):])
}

// bytes keeps an empty value nil, as the decoder has it.
func (b *body) bytes(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	*b = append(*b, v...)
	return (*b)[len(*b)-len(v) : len(*b) : len(*b)]
}
