package shardmap

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
)

func TestNewCoversWholeSpace(t *testing.T) {
	for _, groups := range []int{1, 2, 3, 4, 7} {
		m := New(groups)
		if m.Version() != 1 {
			t.Fatalf("groups=%d: version %d, want 1", groups, m.Version())
		}
		if m.NumRanges() != groups {
			t.Fatalf("groups=%d: %d ranges", groups, m.NumRanges())
		}
		// Every group gets traffic and probes at range edges land correctly.
		hit := map[int]bool{}
		for i := 0; i < 10000; i++ {
			g := m.GroupForKey(fmt.Sprintf("key-%d", i))
			if g < 0 || g >= groups {
				t.Fatalf("groups=%d: key routed to %d", groups, g)
			}
			hit[g] = true
		}
		if len(hit) != groups {
			t.Fatalf("groups=%d: only %d groups hit", groups, len(hit))
		}
		for _, r := range m.Ranges() {
			if got := m.GroupForHash(r.Start); got != r.Group {
				t.Fatalf("start %d routed to %d, want %d", r.Start, got, r.Group)
			}
		}
		if got := m.GroupForHash(^uint32(0)); got != m.Ranges()[groups-1].Group {
			t.Fatalf("top of space routed to %d", got)
		}
	}
}

func TestSplit(t *testing.T) {
	m := New(1)
	m2, lo, hi, err := m.Split(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version() != 2 || m2.NumRanges() != 2 {
		t.Fatalf("version %d ranges %d", m2.Version(), m2.NumRanges())
	}
	if lo != 1<<31 || hi != 0 {
		t.Fatalf("moved range [%d, %d)", lo, hi)
	}
	// Original map is untouched (immutability).
	if m.NumRanges() != 1 || m.Version() != 1 {
		t.Fatal("Split mutated its receiver")
	}
	// Routing agrees with the moved range on both maps.
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		h := Hash(k)
		want := 0
		if InRange(h, lo, hi) {
			want = 1
		}
		if got := m2.GroupForKey(k); got != want {
			t.Fatalf("key %q (hash %d): routed to %d, want %d", k, h, got, want)
		}
		if got := m.GroupForKey(k); got != 0 {
			t.Fatalf("old map routed %q to %d", k, got)
		}
	}
	// A second split of group 0 halves its remaining range.
	m3, lo3, hi3, err := m2.Split(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Version() != 3 || m3.NumRanges() != 3 {
		t.Fatalf("version %d ranges %d", m3.Version(), m3.NumRanges())
	}
	if lo3 != 1<<30 || hi3 != 1<<31 {
		t.Fatalf("moved range [%d, %d)", lo3, hi3)
	}
	// Splitting a group that owns nothing fails.
	if _, _, _, err := m.Split(5, 6); err == nil {
		t.Fatal("split of rangeless group succeeded")
	}
}

func TestGroups(t *testing.T) {
	m := New(1)
	m2, _, _, _ := m.Split(0, 3)
	m3, _, _, _ := m2.Split(3, 1)
	got := m3.Groups()
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("groups %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("groups %v, want %v", got, want)
		}
	}
}

func TestOwnershipInstallMonotone(t *testing.T) {
	m1 := New(1)
	m2, _, _, _ := m1.Split(0, 1)
	o := NewOwnership(m1, 0)
	o.Install(m2)
	if o.Load().Version() != 2 {
		t.Fatalf("version %d after install", o.Load().Version())
	}
	o.Install(m1) // stale install must be a no-op
	if o.Load().Version() != 2 {
		t.Fatal("stale install rolled ownership back")
	}
	// Group 0 no longer owns the upper half.
	if o.Load().Owns(1<<31 + 5) {
		t.Fatal("group 0 still owns moved range")
	}
	if !o.Load().Owns(5) {
		t.Fatal("group 0 lost its kept range")
	}
}

func TestSourceCacheRefresh(t *testing.T) {
	m1 := New(2)
	src := NewSource(m1)
	c := NewCache(src)
	if c.Current().Version() != 1 {
		t.Fatal("cache not primed")
	}
	// Refresh with no change reports no advance (caller should back off).
	if _, advanced := c.Refresh(); advanced {
		t.Fatal("refresh advanced with unchanged source")
	}
	m2, _, _, _ := m1.Split(0, 2)
	src.Publish(m2)
	if m, advanced := c.Refresh(); !advanced || m.Version() != 2 {
		t.Fatalf("refresh: advanced=%v version=%d", advanced, m.Version())
	}
	// Stale publish is ignored.
	src.Publish(m1)
	if src.Current().Version() != 2 {
		t.Fatal("stale publish rolled source back")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	m1 := New(1)
	m2, _, _, _ := m1.Split(0, 1)
	m3, _, _, _ := m2.Split(1, 2)
	path := filepath.Join(t.TempDir(), "shardmap.json")
	if err := m3.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != m3.Version() || got.NumRanges() != m3.NumRanges() {
		t.Fatalf("round trip: version %d ranges %d", got.Version(), got.NumRanges())
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if got.GroupForKey(k) != m3.GroupForKey(k) {
			t.Fatalf("round trip routing differs on %q", k)
		}
	}
	// Missing file → (nil, nil).
	if m, err := LoadFile(filepath.Join(t.TempDir(), "absent.json")); m != nil || err != nil {
		t.Fatalf("missing file: %v %v", m, err)
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"version":0,"ranges":[{"start":0,"group":0}]}`,    // version 0
		`{"version":1,"ranges":[]}`,                         // empty
		`{"version":1,"ranges":[{"start":5,"group":0}]}`,    // doesn't start at 0
		`{"version":1,"ranges":[{"start":0},{"start":0}]}`,  // out of order
		`{"version":1,"ranges":[{"start":0,"group":-1}]}`,   // negative group
		`{"version":1,"ranges":[{"start":9,"group":0},{}]}`, // both
	}
	for _, c := range cases {
		m := &Map{}
		if err := json.Unmarshal([]byte(c), m); err == nil {
			t.Fatalf("unmarshal accepted %s", c)
		}
	}
}

func TestRoutingZeroAlloc(t *testing.T) {
	m, _, _, _ := New(2).Split(0, 2)
	src := NewSource(m)
	c := NewCache(src)
	keys := []string{"alice", "bob", "carol", "a-much-longer-key-name-1234567890"}
	n := testing.AllocsPerRun(1000, func() {
		cur := c.Current()
		for _, k := range keys {
			_ = cur.GroupForKey(k)
		}
	})
	if n != 0 {
		t.Fatalf("routing allocates %.1f per run, want 0", n)
	}
}
