package topo

import (
	"fmt"
	"testing"

	"meerkat/internal/message"
)

func TestQuorumSizes(t *testing.T) {
	cases := []struct {
		replicas, f, majority, fast int
	}{
		{1, 0, 1, 1},
		{3, 1, 2, 3},
		{5, 2, 3, 4},
		{7, 3, 4, 6},
		{9, 4, 5, 7},
	}
	for _, c := range cases {
		tp := Topology{Partitions: 1, Replicas: c.replicas, Cores: 1}
		if tp.F() != c.f {
			t.Errorf("n=%d: F=%d, want %d", c.replicas, tp.F(), c.f)
		}
		if tp.Majority() != c.majority {
			t.Errorf("n=%d: Majority=%d, want %d", c.replicas, tp.Majority(), c.majority)
		}
		if tp.FastQuorum() != c.fast {
			t.Errorf("n=%d: FastQuorum=%d, want %d", c.replicas, tp.FastQuorum(), c.fast)
		}
	}
}

func TestQuorumIntersectionProperties(t *testing.T) {
	// Any two majorities intersect; a fast quorum and a majority intersect
	// in at least ceil(f/2)+1 replicas (the epoch-change safety argument).
	for n := 1; n <= 21; n += 2 {
		tp := Topology{Partitions: 1, Replicas: n, Cores: 1}
		f := tp.F()
		if 2*tp.Majority() <= n {
			t.Errorf("n=%d: two majorities may not intersect", n)
		}
		inter := tp.FastQuorum() + tp.Majority() - n
		if inter < (f+1)/2+1 {
			t.Errorf("n=%d: fast/majority intersection %d < %d", n, inter, (f+1)/2+1)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Topology{Partitions: 1, Replicas: 3, Cores: 4}
	if !good.Validate() {
		t.Error("valid topology rejected")
	}
	for _, bad := range []Topology{
		{Partitions: 0, Replicas: 3, Cores: 1},
		{Partitions: 1, Replicas: 2, Cores: 1}, // even replica count
		{Partitions: 1, Replicas: 3, Cores: 0},
	} {
		if bad.Validate() {
			t.Errorf("invalid topology accepted: %+v", bad)
		}
	}
}

func TestAddressesDisjoint(t *testing.T) {
	tp := Topology{Partitions: 3, Replicas: 3, Cores: 4}
	seen := map[uint32]bool{}
	for p := 0; p < tp.Partitions; p++ {
		for r := 0; r < tp.Replicas; r++ {
			id := tp.ReplicaNode(p, r)
			if seen[id] {
				t.Fatalf("node id %d reused", id)
			}
			if id >= ClientNodeBase {
				t.Fatalf("replica node id %d collides with client space", id)
			}
			seen[id] = true
		}
	}
	if a := tp.ClientAddr(5); a.Node < ClientNodeBase {
		t.Fatalf("client addr %v in replica space", a)
	}
}

func TestGroupAddrs(t *testing.T) {
	tp := Topology{Partitions: 2, Replicas: 3, Cores: 4}
	addrs := tp.GroupAddrs(1, 2)
	if len(addrs) != 3 {
		t.Fatalf("got %d addrs", len(addrs))
	}
	for r, a := range addrs {
		if a.Core != 2 {
			t.Errorf("addr %d core = %d", r, a.Core)
		}
		if a.Node != tp.ReplicaNode(1, r) {
			t.Errorf("addr %d node = %d", r, a.Node)
		}
		if p := tp.PartitionOf(a.Node); p != 1 {
			t.Errorf("addr %d: PartitionOf(%d) = %d, want 1", r, a.Node, p)
		}
	}
}

// TestAddressPlan pins the plan: for every shape no two parties — server
// threads, backup coordinators, epoch-change and state-transfer endpoints,
// clients — share an address or, under Slot and the stride EndpointsPerNode, a
// port-map index; and the stride depends on Cores alone, so a server and a
// client that agree on -cores agree on every port whatever their -shards.
func TestAddressPlan(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8} {
		stride := Topology{Partitions: 1, Replicas: 3, Cores: cores}.EndpointsPerNode()
		for _, shards := range []int{1, 4, 64} {
			tp := Topology{Partitions: shards, Replicas: 3, Cores: cores}
			if got := tp.EndpointsPerNode(); got != stride {
				t.Errorf("cores %d: stride %d at %d shards, %d at 1", cores, got, shards, stride)
			}
			if err := tp.CheckSlots(); err != nil {
				t.Errorf("%+v: %v", tp, err)
			}
			addrs, index := map[message.Addr]string{}, map[int]string{}
			bind := func(a message.Addr, who string) {
				if prev, ok := addrs[a]; ok {
					t.Errorf("%+v: %s and %s share address %v", tp, prev, who, a)
				}
				addrs[a] = who
				if int(a.Core) >= stride {
					t.Errorf("%+v: %s binds core %d, past the stride %d", tp, who, a.Core, stride)
				}
				i := Slot(a.Node)*stride + int(a.Core)
				if prev, ok := index[i]; ok {
					t.Errorf("%+v: %s and %s share port index %d", tp, prev, who, i)
				}
				index[i] = who
			}
			for p := 0; p < shards; p++ {
				for r := 0; r < tp.Replicas; r++ {
					for c := 0; c < cores; c++ {
						bind(tp.ReplicaAddr(p, r, uint32(c)), fmt.Sprintf("core %d of replica %d/%d", c, p, r))
					}
					bind(tp.RecovererAddr(p, r), fmt.Sprintf("recoverer of replica %d/%d", p, r))
				}
				bind(tp.EpochChangeAddr(p), fmt.Sprintf("epoch change of %d", p))
				bind(tp.StateTransferAddr(p), fmt.Sprintf("state transfer of %d", p))
			}
			for id := uint64(0); id < 100; id++ {
				bind(tp.ClientAddr(id), fmt.Sprintf("client %d", id))
			}
		}
	}
	if err := (Topology{Partitions: 65, Replicas: 3, Cores: 1}).CheckSlots(); err == nil {
		t.Error("195 replica nodes fit below the epoch-change slots at 192")
	}
}
