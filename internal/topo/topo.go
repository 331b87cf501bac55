// Package topo describes a Meerkat deployment: how many partitions the data
// is split across (§5.2.4), how many replicas each partition group has
// (n = 2f+1), and how many cores (server threads) each replica runs. It owns
// the address plan — who binds which (node, core) — and the quorum sizes of
// the commit protocol.
//
// The address plan. Every party is one address:
//
//	party                                      node                 core
//	server thread c of replica r, partition p  p*Replicas + r       c
//	that replica's backup coordinator          p*Replicas + r       Cores
//	partition p's epoch-change coordinator     EpochNodeBase + p    0
//	partition p's state-transfer receiver      EpochNodeBase + p    1
//	client id                                  ClientNodeBase + id  0
//
// so a node binds at most EndpointsPerNode addresses, whatever the number of
// partitions, and a transport that needs dense indices (UDP ports) lays the
// three node ranges side by side with Slot.
package topo

import (
	"fmt"

	"meerkat/internal/message"
)

// The node id ranges of the plan: replicas below EpochNodeBase, the ephemeral
// per-partition epoch-change and state-transfer endpoints from there, clients
// from ClientNodeBase.
const (
	EpochNodeBase  = 1 << 15
	ClientNodeBase = 1 << 16
)

// Slot bases: where Slot puts the second and third node range.
const (
	epochSlotBase  = 192
	clientSlotBase = 256
)

// Slot compacts a node id into a dense index, so the sparse ranges above fit
// a 16-bit port space: replicas keep their ids, partition p's epoch node is
// slot epochSlotBase+p, client id's node slot clientSlotBase+id.
func Slot(node uint32) int {
	switch {
	case node < EpochNodeBase:
		return int(node)
	case node < ClientNodeBase:
		return epochSlotBase + int(node-EpochNodeBase)
	default:
		return clientSlotBase + int(node-ClientNodeBase)
	}
}

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

// RecovererAddr returns the address of the backup coordinator of replica r of
// partition p: one past its server threads.
func (t Topology) RecovererAddr(p, r int) message.Addr {
	return t.ReplicaAddr(p, r, uint32(t.Cores))
}

// EpochChangeAddr returns the address partition p's epoch change runs from.
func (t Topology) EpochChangeAddr(p int) message.Addr {
	return message.Addr{Node: EpochNodeBase + uint32(p), Core: 0}
}

// StateTransferAddr returns the address a recovering replica of partition p
// fetches a donor's state from.
func (t Topology) StateTransferAddr(p int) message.Addr {
	return message.Addr{Node: EpochNodeBase + uint32(p), Core: 1}
}

// ClientAddr returns the address of client id. Each client owns one endpoint:
// flow steering by core is a server-side device that keeps a transaction on
// one trecord partition, while a client — a coordinator, or a session and all
// its workers — collects every group's replies in one mailbox and tells them
// apart by PartitionOf the sender.
func (t Topology) ClientAddr(clientID uint64) message.Addr {
	return message.Addr{Node: ClientNodeBase + uint32(clientID), Core: 0}
}

// EndpointsPerNode returns the number of cores a node can bind under the
// plan — a replica's server threads plus its backup coordinator, an epoch
// node's two — which is the per-node stride of a port map.
func (t Topology) EndpointsPerNode() int { return max(t.Cores+1, 2) }

// CheckSlots reports whether the deployment's node ranges stay apart under
// Slot: replica nodes below the epoch slots, those below the client slots.
func (t Topology) CheckSlots() error {
	if n := t.Partitions * t.Replicas; n > epochSlotBase {
		return fmt.Errorf("topo: %d replica nodes overlap the epoch-change slots starting at %d", n, epochSlotBase)
	}
	if t.Partitions > clientSlotBase-epochSlotBase {
		return fmt.Errorf("topo: %d epoch-change slots overlap the client slots starting at %d", t.Partitions, clientSlotBase)
	}
	return nil
}
