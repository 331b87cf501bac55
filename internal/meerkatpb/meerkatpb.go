// Package meerkatpb implements Meerkat-PB, the paper's primary-backup
// variant of Meerkat (§6.1): it satisfies disjoint access parallelism but
// not coordination-free execution, isolating the cost of cross-replica
// coordination.
//
// Meerkat-PB shares Meerkat's data structures and concurrency control:
// clients propose timestamps from their own clocks, the trecord is
// partitioned per core, and storage metadata is per key. But only the
// primary runs the concurrency-control checks — clients submit transactions
// to it, and it alone decides which conflicting transactions commit. Each
// backup core is matched to a primary core and processes only that core's
// transactions, so replication adds no shared data structures; because
// committed transactions are timestamp-ordered and conflict-free, backups
// can apply them in any order.
package meerkatpb

import (
	"fmt"
	"sync/atomic"

	"meerkat/internal/message"
	"meerkat/internal/occ"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/trecord"
	"meerkat/internal/vstore"
)

// Config parameterizes a Meerkat-PB replica. Replica 0 is the primary.
type Config struct {
	Topo  topo.Topology
	Index int
	Net   transport.Network
	Store *vstore.Store
}

// Replica is one Meerkat-PB node.
type Replica struct {
	cfg     Config
	store   *vstore.Store
	cores   []*core
	stopped atomic.Bool
}

// core is one server thread with its private trecord partition and pending
// table; backup acks return to the primary core that issued the replicate,
// so completion needs no cross-core traffic.
type core struct {
	r  *Replica
	id uint32
	// ep is published atomically: the delivery goroutine may run the
	// handler before Listen returns.
	ep      atomic.Pointer[transport.Endpoint]
	part    *trecord.Partition
	pending map[timestamp.TxnID]*pendingTxn
}

func (c *core) send(dst message.Addr, m *message.Message) {
	if ep := c.ep.Load(); ep != nil {
		(*ep).Send(dst, m)
	}
}

type pendingTxn struct {
	client message.Addr
	txn    message.Txn
	ts     timestamp.Timestamp
	acks   map[uint32]bool
}

// New creates a replica; call Start to bind endpoints.
func New(cfg Config) (*Replica, error) {
	if !cfg.Topo.Validate() || cfg.Topo.Partitions != 1 {
		return nil, fmt.Errorf("meerkatpb: invalid topology %+v", cfg.Topo)
	}
	st := cfg.Store
	if st == nil {
		st = vstore.New(vstore.Config{})
	}
	r := &Replica{cfg: cfg, store: st}
	for c := 0; c < cfg.Topo.Cores; c++ {
		r.cores = append(r.cores, &core{
			r: r, id: uint32(c),
			part:    trecord.NewPartition(),
			pending: make(map[timestamp.TxnID]*pendingTxn),
		})
	}
	return r, nil
}

// Store returns the storage layer for loading and verification.
func (r *Replica) Store() *vstore.Store { return r.store }

// IsPrimary reports whether this replica is the group's primary.
func (r *Replica) IsPrimary() bool { return r.cfg.Index == 0 }

// Start binds one endpoint per core.
func (r *Replica) Start() error {
	for _, c := range r.cores {
		addr := r.cfg.Topo.ReplicaAddr(0, r.cfg.Index, c.id)
		ep, err := r.cfg.Net.Listen(addr, c.handle)
		if err != nil {
			r.Stop()
			return err
		}
		c.ep.Store(&ep)
	}
	return nil
}

// Stop closes the replica's endpoints.
func (r *Replica) Stop() {
	if r.stopped.Swap(true) {
		return
	}
	for _, c := range r.cores {
		if ep := c.ep.Load(); ep != nil {
			(*ep).Close()
		}
	}
}

func (c *core) handle(m *message.Message) {
	switch m.Type {
	case message.TypeMultiRead:
		r := &message.Message{Type: message.TypeMultiReadReply, Seq: m.Seq, ReplicaID: uint32(c.r.cfg.Index)}
		reads := r.OwnReads(len(m.Keys))
		for i, k := range m.Keys {
			v, ok := c.r.store.Read(k)
			reads[i] = message.ReadResult{Value: v.Value, WTS: v.WTS, OK: ok}
		}
		c.send(m.Src, r)
	case message.TypePBSubmit:
		c.handleSubmit(m)
	case message.TypePBReplicate:
		c.handleReplicate(m)
	case message.TypePBAck:
		c.handleAck(m)
	}
}

// handleSubmit runs at the primary: validate at the client's proposed
// timestamp against the core-private record, then replicate committed
// writes to the matched backup cores.
func (c *core) handleSubmit(m *message.Message) {
	if !c.r.IsPrimary() {
		return
	}
	if rec := c.part.Get(m.Txn.ID); rec != nil {
		// A retry. Final: re-reply. In flight: re-replicate.
		if rec.Status.Final() {
			c.send(m.Src, &message.Message{
				Type: message.TypePBReply, TID: m.Txn.ID,
				OK: rec.Status == message.StatusCommitted,
			})
		} else if pt := c.pending[m.Txn.ID]; pt != nil {
			pt.client = m.Src
			c.replicate(pt)
		}
		return
	}

	st := occ.Validate(c.r.store, &m.Txn, m.TS)
	rec, _ := c.part.GetOrCreate(m.Txn.ID)
	rec.Txn = m.Txn
	rec.TS = m.TS
	rec.Registered = st == message.StatusValidatedOK
	if st == message.StatusValidatedAbort {
		rec.Status = message.StatusAborted
		c.send(m.Src, &message.Message{Type: message.TypePBReply, TID: m.Txn.ID, OK: false})
		return
	}
	rec.Status = message.StatusValidatedOK

	pt := &pendingTxn{client: m.Src, txn: m.Txn, ts: m.TS, acks: make(map[uint32]bool)}
	c.pending[m.Txn.ID] = pt
	c.replicate(pt)
}

// replicate ships the transaction's writes to this core's matched backup
// cores.
func (c *core) replicate(pt *pendingTxn) {
	for b := 1; b < c.r.cfg.Topo.Replicas; b++ {
		c.send(c.r.cfg.Topo.ReplicaAddr(0, b, c.id), &message.Message{
			Type: message.TypePBReplicate, TS: pt.ts,
			Txn: message.Txn{ID: pt.txn.ID, WriteSet: pt.txn.WriteSet},
		})
	}
}

// handleReplicate runs at a backup core: install the timestamped writes.
// Versioned installs commute (Thomas write rule), so no ordering or shared
// state is needed — the matched core applies its primary twin's stream.
func (c *core) handleReplicate(m *message.Message) {
	for _, w := range m.Txn.WriteSet {
		c.r.store.CommitWrite(w.Key, w.Value, m.TS)
	}
	c.send(m.Src, &message.Message{
		Type: message.TypePBAck, TID: m.Txn.ID, ReplicaID: uint32(c.r.cfg.Index),
	})
}

// handleAck runs at the primary core: after f backups acknowledged, the
// transaction is durable; apply the write phase and release the client.
func (c *core) handleAck(m *message.Message) {
	pt := c.pending[m.TID]
	if pt == nil {
		return
	}
	pt.acks[m.ReplicaID] = true
	if len(pt.acks) < c.r.cfg.Topo.F() {
		return
	}
	delete(c.pending, m.TID)
	if rec := c.part.Get(pt.txn.ID); rec != nil {
		rec.Status = message.StatusCommitted
		rec.Registered = false
	}
	occ.ApplyCommit(c.r.store, &pt.txn, pt.ts)
	c.send(pt.client, &message.Message{Type: message.TypePBReply, TID: pt.txn.ID, OK: true})
}
