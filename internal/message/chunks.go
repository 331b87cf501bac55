package message

// chunkEntries is the capacity of one entry chunk, chunkBytes that of one byte
// chunk. A span handed out pins its whole chunk, so a chunk should be small
// enough that one long-lived holder wastes little and large enough that opening
// one is noise: 256 entries of 40 bytes (56 for an op) are 10–14 KB, and the
// suite's retwis, which ships 1.3 read and 1.9 write entries per transaction
// (its read-only half commits locally), opens one every 80 transactions.
const (
	chunkEntries = 256
	chunkBytes   = 16 << 10
)

// Chunks is append-only memory a holder fills in arrival order: a chunk per set
// kind, and one of the keys, values and op arguments TakeTxn copies. A chunk is
// written only at its length; what is below it belongs to whoever received a
// span of it, and a chunk that cannot take what comes next is left to them for
// a new one. A coordinator ships its commits from Chunks (Carve) and keeps the
// values its read rounds take from decoded replies in them (Span), a trecord
// partition keeps the bodies it takes from decoded messages in them (TakeTxn).
type Chunks struct {
	reads  []ReadSetEntry
	writes []WriteSetEntry
	ops    []OpSetEntry
	data   []byte
}

// room opens a new chunk of at least size if *chunk cannot take n more
// elements, leaving the old one to its readers.
func room[E any](chunk *[]E, n, size int) {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]E, 0, max(size, n))
	}
}

// Room makes room for nr read, nw write and no op entries.
func (c *Chunks) Room(nr, nw, no int) {
	room(&c.reads, nr, chunkEntries)
	room(&c.writes, nw, chunkEntries)
	room(&c.ops, no, chunkEntries)
}

// Carve appends the entries of reads, writes and ops that belong to partition
// p — part[i] is the partition of entry i, counted over reads, then writes,
// then ops; a nil part takes every entry — to the chunks, which Room made room
// for them, and returns them as capacity-capped spans, so an append cannot
// reach a neighbour.
func (c *Chunks) Carve(reads []ReadSetEntry, writes []WriteSetEntry, ops []OpSetEntry, part []int, p int) ([]ReadSetEntry, []WriteSetEntry, []OpSetEntry) {
	nr, nw := len(reads), len(writes)
	return carve(&c.reads, reads, part, 0, p), carve(&c.writes, writes, part, nr, p), carve(&c.ops, ops, part, nr+nw, p)
}

// carve appends the entries of set whose part[from+i] is p to chunk.
func carve[E any](chunk *[]E, set []E, part []int, from, p int) []E {
	start := len(*chunk)
	for i := range set {
		if part == nil || part[from+i] == p {
			*chunk = append(*chunk, set[i])
		}
	}
	if start == len(*chunk) {
		return nil
	}
	return (*chunk)[start:len(*chunk):len(*chunk)]
}

// str copies s into the byte chunk and returns the copy.
func (c *Chunks) str(s string) string {
	room(&c.data, len(s), chunkBytes)
	c.data = append(c.data, s...)
	return cut(c.data[len(c.data)-len(s):])
}

// Span copies v into the byte chunk and returns the copy, capacity-capped; an
// empty v comes back nil, as the decoder has it.
func (c *Chunks) Span(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	room(&c.data, len(v), chunkBytes)
	c.data = append(c.data, v...)
	return c.data[len(c.data)-len(v) : len(c.data) : len(c.data)]
}
