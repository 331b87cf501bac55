// Package kuafu implements KuaFu++, the paper's classic log-based
// primary-backup baseline (§6.1): the system that violates both halves of
// the Zero-Coordination Principle.
//
// The primary decides transaction ordering with a shared atomic counter and
// places each committed transaction into a shared, mutex-protected log for
// replication; replicas also funnel replay through their shared log. Like
// the paper's prototype (and unlike the original KuaFu), correctness comes
// from OCC validation at the primary rather than replay barriers, so backup
// cores apply updates in parallel; the shared log and counter remain as the
// cross-core coordination points, and the primary-backup round is the
// cross-replica coordination point.
//
// KuaFu++ shares the transport, storage, and OCC layers with Meerkat, so the
// performance gap measured in the evaluation isolates exactly the
// coordination structure.
package kuafu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"meerkat/internal/message"
	"meerkat/internal/occ"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/trecord"
	"meerkat/internal/vstore"
)

// tsClient is the ClientID used in primary-assigned timestamps; distinct
// from the bulk-load id (0) so counter value 1 cannot collide with loads.
const tsClient = 1

// Config parameterizes a KuaFu++ replica. Replica 0 of the group is the
// primary. Partitions must be 1 (the baseline, like the paper's, is
// unpartitioned).
type Config struct {
	Topo  topo.Topology
	Index int
	Net   transport.Network
	Store *vstore.Store
}

// Replica is one KuaFu++ node.
type Replica struct {
	cfg   Config
	store *vstore.Store

	// counter is the shared atomic counter the primary uses to order
	// transactions — a deliberate cross-core contention point.
	counter atomic.Uint64

	// log is the shared replication log, protected by one mutex on every
	// node — the second deliberate contention point.
	logMu sync.Mutex
	log   []logEntry

	// rec is the shared transaction record ("KuaFu++ and TAPIR share a
	// single record per replica").
	rec *trecord.Shared

	cores   []*core
	stopped atomic.Bool
}

// core is one server thread. pending is core-local: backups ack to the core
// that sent the replicate, so no cross-core hand-off is needed for
// completion.
type core struct {
	r  *Replica
	id uint32
	// ep is published atomically: the delivery goroutine may run the
	// handler before Listen returns.
	ep      atomic.Pointer[transport.Endpoint]
	pending map[uint64]*pendingTxn
}

func (c *core) send(dst message.Addr, m *message.Message) {
	if ep := c.ep.Load(); ep != nil {
		(*ep).Send(dst, m)
	}
}

// logEntry is one ordered entry of the shared replication log: the position the
// primary's counter assigned, the transaction's identity and writes, and its
// timestamp. The log is never truncated, so it keeps no read or op set.
type logEntry struct {
	seq uint64
	txn message.Txn
	ts  timestamp.Timestamp
}

type pendingTxn struct {
	client message.Addr
	txn    message.Txn
	ts     timestamp.Timestamp
	acks   map[uint32]bool // backup replica ids that acknowledged
}

// New creates a replica; call Start to bind endpoints.
func New(cfg Config) (*Replica, error) {
	if !cfg.Topo.Validate() || cfg.Topo.Partitions != 1 {
		return nil, fmt.Errorf("kuafu: invalid topology %+v", cfg.Topo)
	}
	st := cfg.Store
	if st == nil {
		st = vstore.New(vstore.Config{})
	}
	r := &Replica{cfg: cfg, store: st, rec: trecord.NewShared()}
	for c := 0; c < cfg.Topo.Cores; c++ {
		r.cores = append(r.cores, &core{r: r, id: uint32(c), pending: make(map[uint64]*pendingTxn)})
	}
	return r, nil
}

// Store returns the storage layer for loading and verification.
func (r *Replica) Store() *vstore.Store { return r.store }

// IsPrimary reports whether this replica is the group's primary.
func (r *Replica) IsPrimary() bool { return r.cfg.Index == 0 }

// LogLen returns the shared log length (tests).
func (r *Replica) LogLen() int {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	return len(r.log)
}

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

// handleSubmit runs at the primary: order the transaction with the shared
// counter, validate it with OCC under the shared record lock, append it to
// the shared log, and replicate to the backups.
func (c *core) handleSubmit(m *message.Message) {
	if !c.r.IsPrimary() {
		return // clients only submit to the primary
	}
	var st message.Status
	var ts timestamp.Timestamp
	var seq uint64
	duplicate := false
	c.r.rec.Do(func(p *trecord.Partition) {
		if rec := p.Get(m.Txn.ID); rec != nil {
			// Retry of an in-flight or finished transaction.
			duplicate = true
			st = rec.Status
			return
		}
		seq = c.r.counter.Add(1) // shared atomic counter: the order
		ts = timestamp.Timestamp{Time: int64(seq), ClientID: tsClient}
		st = occ.Validate(c.r.store, &m.Txn, ts)
		rec, _ := p.GetOrCreate(m.Txn.ID)
		rec.Txn = m.Txn
		rec.TS = ts
		rec.Status = st
		rec.Registered = st == message.StatusValidatedOK
		if st == message.StatusValidatedAbort {
			rec.Status = message.StatusAborted
		}
	})

	if duplicate {
		if st.Final() {
			c.send(m.Src, &message.Message{
				Type: message.TypePBReply, TID: m.Txn.ID,
				OK: st == message.StatusCommitted,
			})
			return
		}
		// Still replicating: re-ship the log entry in case the first
		// replicate (or its ack) was lost; the reply comes from handleAck.
		for seq, pt := range c.pending {
			if pt.txn.ID == m.Txn.ID {
				c.replicate(logEntry{seq: seq, txn: pt.txn, ts: pt.ts})
				pt.client = m.Src
				break
			}
		}
		return
	}

	if st == message.StatusValidatedAbort {
		c.send(m.Src, &message.Message{Type: message.TypePBReply, TID: m.Txn.ID, OK: false})
		return
	}

	// Append the committed order to the shared log...
	entry := logEntry{seq: seq, txn: message.Txn{ID: m.Txn.ID, WriteSet: m.Txn.WriteSet}, ts: ts}
	c.r.logMu.Lock()
	c.r.log = append(c.r.log, entry)
	c.r.logMu.Unlock()

	// ...and ship it to the backups.
	c.replicate(entry)
	c.pending[seq] = &pendingTxn{client: m.Src, txn: m.Txn, ts: ts, acks: make(map[uint32]bool)}
}

// replicate ships one log entry's writes to the backups' cores of the same id,
// so their acks return here.
func (c *core) replicate(e logEntry) {
	for b := 1; b < c.r.cfg.Topo.Replicas; b++ {
		c.send(c.r.cfg.Topo.ReplicaAddr(0, b, c.id), &message.Message{
			Type: message.TypePBReplicate, Seq: e.seq, TS: e.ts,
			Txn: message.Txn{ID: e.txn.ID, WriteSet: e.txn.WriteSet},
		})
	}
}

// handleReplicate runs at a backup: append to the shared log (the paper's
// log-synchronization bottleneck), then apply the updates in parallel —
// timestamped versioned writes commute, so no replay order is needed.
func (c *core) handleReplicate(m *message.Message) {
	c.r.logMu.Lock()
	c.r.log = append(c.r.log, logEntry{seq: m.Seq, txn: m.Txn, ts: m.TS})
	c.r.logMu.Unlock()
	for _, w := range m.Txn.WriteSet {
		c.r.store.CommitWrite(w.Key, w.Value, m.TS)
	}
	c.send(m.Src, &message.Message{
		Type: message.TypePBAck, Seq: m.Seq, ReplicaID: uint32(c.r.cfg.Index),
	})
}

// handleAck runs at the primary: once f backups hold the log entry, the
// transaction is durable — apply the write phase and release the client.
func (c *core) handleAck(m *message.Message) {
	pt := c.pending[m.Seq]
	if pt == nil {
		return // duplicate ack
	}
	pt.acks[m.ReplicaID] = true
	if len(pt.acks) < c.r.cfg.Topo.F() {
		return
	}
	delete(c.pending, m.Seq)
	c.r.rec.Do(func(p *trecord.Partition) {
		if rec := p.Get(pt.txn.ID); rec != nil {
			rec.Status = message.StatusCommitted
			rec.Registered = false
		}
	})
	occ.ApplyCommit(c.r.store, &pt.txn, pt.ts)
	c.send(pt.client, &message.Message{Type: message.TypePBReply, TID: pt.txn.ID, OK: true})
}
