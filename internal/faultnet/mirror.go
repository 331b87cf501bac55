package faultnet

import (
	"context"
	"time"
)

// Lifecycle is the replica lifecycle behind the node ids a plan crashes and
// restarts. *meerkat.Admin satisfies it.
type Lifecycle interface {
	// ReplicaOf maps a node id to its (shard, replica); !ok for other nodes.
	ReplicaOf(node uint32) (p, r int, ok bool)
	CrashReplica(p, r int)
	RecoverReplica(p, r int) error
}

// Mirror applies the OpCrash/OpRestart events the network fires to the real
// replicas, so a black-holed node also loses its volatile state and a
// restarted one goes through state transfer and epoch change. A restart is
// retried, paced on the network's clock, until it succeeds: right after the
// black-hole lifts, an ambient drop rule can still fail a state transfer.
// onFired, when non-nil, is called on Mirror's goroutine after each event has
// been applied. Mirror returns when ctx is done.
func (n *Network) Mirror(ctx context.Context, target Lifecycle, onFired func(Event)) {
	pace := n.g.NewTimer()
	defer pace.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-n.events:
			p, r, ok := target.ReplicaOf(ev.Node)
			if !ok {
				continue
			}
			switch ev.Op {
			case OpCrash:
				target.CrashReplica(p, r)
			case OpRestart:
				for target.RecoverReplica(p, r) != nil {
					pace.Reset(10 * time.Millisecond)
					select {
					case <-ctx.Done():
						return
					case <-pace.C():
					}
				}
			default:
				continue
			}
			if onFired != nil {
				onFired(ev)
			}
		}
	}
}
