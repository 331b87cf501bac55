// Package topo describes a Meerkat deployment: how many partitions the data
// is split across (§5.2.4), how many replicas each partition group has
// (n = 2f+1), and how many cores (server threads) each replica runs. It also
// fixes the address conventions every component uses, and the quorum sizes
// of the commit protocol.
package topo

import "meerkat/internal/message"

// ClientNodeBase is the first node id assigned to clients; replica node ids
// stay below it.
const ClientNodeBase = 1 << 16

// Topology is an immutable description of a deployment.
type Topology struct {
	// Partitions is the number of data partitions; each has its own
	// replica group. Must be >= 1.
	Partitions int
	// Replicas is the number of replicas per partition group (n = 2f+1).
	Replicas int
	// Cores is the number of server threads per replica.
	Cores int
}

// Validate reports whether the topology is well formed.
func (t Topology) Validate() bool {
	return t.Partitions >= 1 && t.Replicas >= 1 && t.Replicas%2 == 1 && t.Cores >= 1
}

// F returns the number of replica failures each partition group tolerates.
func (t Topology) F() int { return (t.Replicas - 1) / 2 }

// Majority returns the slow-path quorum size, f+1.
func (t Topology) Majority() int { return t.F() + 1 }

// FastQuorum returns the fast-path supermajority, f + ceil(f/2) + 1.
func (t Topology) FastQuorum() int {
	f := t.F()
	return f + (f+1)/2 + 1
}

// ReplicaNode returns the node id of replica r of partition p.
func (t Topology) ReplicaNode(p, r int) uint32 {
	return uint32(p*t.Replicas + r)
}

// PartitionOf returns the partition whose replica group owns node — the
// inverse of ReplicaNode. A replica's ReplicaID is only unique inside its
// group, so whoever collects replies of several groups in one queue tells
// them apart by the partition of the sender's address.
func (t Topology) PartitionOf(node uint32) int {
	return int(node) / t.Replicas
}

// ReplicaAddr returns the address of core c on replica r of partition p.
func (t Topology) ReplicaAddr(p, r int, core uint32) message.Addr {
	return message.Addr{Node: t.ReplicaNode(p, r), Core: core}
}

// GroupAddrs returns the addresses of core `core` on every replica of
// partition p — the destination set for a validate/accept/commit broadcast.
func (t Topology) GroupAddrs(p int, core uint32) []message.Addr {
	out := make([]message.Addr, t.Replicas)
	for r := 0; r < t.Replicas; r++ {
		out[r] = t.ReplicaAddr(p, r, core)
	}
	return out
}

// ClientAddr returns the address for client id. Each client owns one
// endpoint (core 0 of its own node).
func (t Topology) ClientAddr(clientID uint64) message.Addr {
	return message.Addr{Node: ClientNodeBase + uint32(clientID), Core: 0}
}
