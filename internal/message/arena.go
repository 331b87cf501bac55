package message

import "unsafe"

// A decoded message's bytes. DecodeInto copies the datagram into the message's
// arena once and cuts every key as a string over it and every value and op
// argument as a capacity-capped span of it, so decoding allocates nothing per
// key or value. What is cut dies with the arena — at the message's release or
// its next decode — as do the set arrays the decoder fills, and whoever keeps
// any of it copies it first, once, compactly (DESIGN.md §7 rule 5): TakeTxn for
// a transaction body, strings.Clone for a single key, a read round's Span for a
// value, Disown for a cold path that keeps a whole message's worth.
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
// caller's value, a stored version's value), which a keeper may go on aliasing.
func (m *Message) OwnsBytes() bool { return len(m.arena) > 0 }

// Disown leaves everything m owns — its arena and the arrays it decoded into —
// to the collector: what m carries stays valid for as long as anyone holds it,
// and m answers OwnsBytes false from here on. It is how a cold path keeps what
// a decoded message carries — records of an epoch change, a page of state, a
// body — without walking it; one kept key pins the whole datagram's image.
func (m *Message) Disown() { m.owned = owned{} }

// TakeTxn moves the transaction body out of m for a holder that outlives m's
// release (a trecord), which keeps it in c. A message a sender built hands its
// sets over as they are. A decoded one's arrays and bytes die with it, so the
// entries, keys, values and op arguments are copied into c: the holder pins
// compact, immutable spans of its own memory, not the datagram's image.
func (m *Message) TakeTxn(c *Chunks) Txn {
	t := m.Txn
	m.Txn = Txn{}
	if !m.OwnsBytes() {
		return t
	}
	c.Room(len(t.ReadSet), len(t.WriteSet), len(t.OpSet))
	t.ReadSet, t.WriteSet, t.OpSet = c.Carve(t.ReadSet, t.WriteSet, t.OpSet, nil, 0)
	for i := range t.ReadSet {
		t.ReadSet[i].Key = c.str(t.ReadSet[i].Key)
	}
	for i := range t.WriteSet {
		t.WriteSet[i].Key = c.str(t.WriteSet[i].Key)
		t.WriteSet[i].Value = c.Span(t.WriteSet[i].Value)
	}
	for i := range t.OpSet {
		t.OpSet[i].Key = c.str(t.OpSet[i].Key)
		t.OpSet[i].Arg = c.Span(t.OpSet[i].Arg)
	}
	return t
}
