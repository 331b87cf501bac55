package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/occ"
	"meerkat/internal/replica"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/trecord"
	"meerkat/internal/vstore"
	"meerkat/internal/wal"
	gen "meerkat/internal/workload"
)

// Layer probes: direct timed calls into each layer's public functions, on
// inputs taken from the retwis spec ring, whatever workload is running. They
// price one layer with nothing queued in front of it, which is what the
// commit budget subtracts. A nanosecond-scale probe reports the mean of a
// tight loop; a round trip reports the median of individually timed calls.

// probeUDPBasePort keeps the probe's two sockets clear of the deployment's
// port map (base 20000) and of the ranges the repository's tests bind.
const probeUDPBasePort = 21500

var loadTS = timestamp.Timestamp{Time: 1}

type prober struct {
	keys    keyTable
	ring    []spec
	writers []*spec
	readers []*spec
	initial []byte
	walDir  string // scratch directory of the WAL probe
	scale   int    // iterations multiplier; 1 in -smoke, 10 otherwise

	out   map[string]float64
	sink  uint64
	clock int64 // next proposed timestamp
}

func newProber(retwis *workload, keys int, seed int64, walDir string, scale int) *prober {
	p := &prober{
		keys: newKeyTable(keys), walDir: walDir, scale: scale,
		initial: gen.Value(retwis.valueSize),
		out:     make(map[string]float64), clock: 2,
	}
	p.ring = retwis.newRing(p.keys, seed, 0)
	for i := range p.ring {
		if p.ring[i].readOnly() {
			p.readers = append(p.readers, &p.ring[i])
		} else {
			p.writers = append(p.writers, &p.ring[i])
		}
	}
	return p
}

func (p *prober) store() *vstore.Store {
	s := vstore.New(vstore.Config{})
	for _, k := range p.keys {
		s.Load(k, p.initial, loadTS)
	}
	return s
}

func (p *prober) nextTS() timestamp.Timestamp {
	p.clock++
	return timestamp.Timestamp{Time: p.clock, ClientID: 1}
}

// versions tracks what a probe's own commits installed, so each generated
// transaction reads the latest version and validates OK.
type versions struct {
	wts     map[string]timestamp.Timestamp
	vhash   map[string]uint64
	initial uint64
	seq     uint64
}

func (p *prober) newVersions() *versions {
	return &versions{wts: map[string]timestamp.Timestamp{}, vhash: map[string]uint64{}, initial: message.HashValue(p.initial)}
}

// txn builds the transaction of a writing spec against the tracked versions
// and records its writes as committed at ts.
func (v *versions) txn(s *spec, ts timestamp.Timestamp) message.Txn {
	v.seq++
	t := message.Txn{ID: timestamp.TxnID{Seq: v.seq, ClientID: 1}}
	for _, k := range s.gets {
		e := message.ReadSetEntry{Key: k, WTS: loadTS, VHash: v.initial}
		if w, ok := v.wts[k]; ok {
			e.WTS, e.VHash = w, v.vhash[k]
		}
		t.ReadSet = append(t.ReadSet, e)
	}
	h := message.HashValue(s.value)
	for _, k := range s.puts {
		t.WriteSet = append(t.WriteSet, message.WriteSetEntry{Key: k, Value: s.value})
		v.wts[k], v.vhash[k] = ts, h
	}
	return t
}

func meanNs(total time.Duration, n int) float64 { return float64(total) / float64(n) }

func (p *prober) vstoreProbes() {
	s := p.store()
	n := 0
	start := time.Now()
	for _, sp := range p.ring[:2000*p.scale] {
		for _, k := range sp.gets {
			v, _ := s.Read(k)
			p.sink += uint64(len(v.Value))
			n++
		}
	}
	p.out["vstore.read_ns"] = meanNs(time.Since(start), n)

	n = 0
	start = time.Now()
	for _, sp := range p.ring[:2000*p.scale] {
		snap := p.nextTS()
		for _, k := range sp.gets {
			v, _, _ := s.SnapshotRead(k, snap)
			p.sink += uint64(len(v.Value))
			n++
		}
	}
	p.out["vstore.snapshot_read_ns"] = meanNs(time.Since(start), n)

	n = 0
	start = time.Now()
	for _, sp := range p.writers[:1000*p.scale] {
		ts := p.nextTS()
		for _, k := range sp.puts {
			s.CommitWrite(k, sp.value, ts)
			n++
		}
	}
	p.out["vstore.commit_write_ns"] = meanNs(time.Since(start), n)
}

func (p *prober) occProbes() error {
	s := p.store()
	vs := p.newVersions()
	var validate, apply time.Duration
	specs := p.writers[:1000*p.scale]
	for _, sp := range specs {
		ts := p.nextTS()
		txn := vs.txn(sp, ts)
		t0 := time.Now()
		st := occ.Validate(s, &txn, ts)
		t1 := time.Now()
		occ.ApplyCommit(s, &txn, ts)
		apply += time.Since(t1)
		validate += t1.Sub(t0)
		if st != message.StatusValidatedOK {
			return fmt.Errorf("occ probe: transaction %v validated %v", txn.ID, st)
		}
	}
	p.out["occ.validate_us"] = meanNs(validate, len(specs)) / 1e3
	p.out["occ.apply_commit_us"] = meanNs(apply, len(specs)) / 1e3
	return nil
}

func (p *prober) trecordProbe() {
	part := trecord.NewPartition()
	n := 20000 * p.scale
	start := time.Now()
	for i := 0; i < n; i++ {
		r, _ := part.GetOrCreate(timestamp.TxnID{Seq: uint64(i), ClientID: 1})
		p.sink += uint64(r.View)
	}
	p.out["trecord.get_or_create_ns"] = meanNs(time.Since(start), n)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// messageProbes encodes and decodes what one commit and one read round put
// on the wire: a validate request, its reply, and a multi-read request.
func (p *prober) messageProbes() error {
	vs := p.newVersions()
	var msgs []*message.Message
	var validateBytes, validates int
	enc := message.AcquireEncoder()
	defer enc.Release()
	for i, sp := range p.writers[:256] {
		ts := p.nextTS()
		txn := vs.txn(sp, ts)
		req := &message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts}
		reply := &message.Message{Type: message.TypeValidateReply, TID: txn.ID, Status: message.StatusValidatedOK}
		read := &message.Message{Type: message.TypeMultiRead, Keys: p.readers[i].gets, Seq: uint64(i)}
		msgs = append(msgs, req, reply, read)
		validateBytes += len(enc.EncodeInto(req))
		validates++
	}
	p.out["message.bytes_per_validate"] = float64(validateBytes) / float64(validates)

	wire := make([][]byte, len(msgs))
	rounds := 20 * p.scale
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, m := range msgs {
			b := enc.EncodeInto(m)
			if r == 0 {
				wire[i] = append([]byte(nil), b...)
			}
		}
	}
	p.out["message.encode_ns"] = meanNs(time.Since(start), rounds*len(msgs))

	dst := message.AcquireMessage()
	defer message.ReleaseMessage(dst)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range wire {
			if err := message.DecodeInto(dst, b); err != nil {
				return fmt.Errorf("message probe: %w", err)
			}
		}
	}
	p.out["message.decode_ns"] = meanNs(time.Since(start), rounds*len(wire))

	// One round trip is a validate request and its reply, each encoded and
	// decoded once.
	before := mallocs()
	for r := 0; r < rounds; r++ {
		for i := 0; i < len(msgs); i += 3 {
			for _, m := range msgs[i : i+2] {
				if err := message.DecodeInto(dst, enc.EncodeInto(m)); err != nil {
					return fmt.Errorf("message probe: %w", err)
				}
			}
		}
	}
	p.out["message.allocs_per_roundtrip"] = float64(mallocs()-before) / float64(rounds*len(msgs)/3)
	return nil
}

// watchdog unblocks a probe waiting on in with a nil message after d, so a
// lost reply is an error instead of a hang and the timed path holds no timer.
func watchdog(in *transport.Inbox, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		select {
		case in.C <- nil:
		default:
		}
	})
}

const probeDeadline = 20 * time.Second

// pingPong times n request/echo round trips between two endpoints of net and
// returns the median in microseconds.
func pingPong(net transport.Network, client, server message.Addr, n int) (float64, error) {
	var sep transport.Endpoint
	ready := make(chan struct{})
	ep, err := net.Listen(server, func(m *message.Message) {
		<-ready
		sep.Send(m.Src, &message.Message{Type: message.TypePutReply, Seq: m.Seq})
	})
	if err != nil {
		return 0, err
	}
	sep = ep
	close(ready)
	defer sep.Close()
	in := transport.NewInbox(4)
	cep, err := net.Listen(client, in.Handle)
	if err != nil {
		return 0, err
	}
	defer cep.Close()
	defer watchdog(in, probeDeadline).Stop()

	rtts := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := cep.Send(server, &message.Message{Type: message.TypePut, Seq: uint64(i)}); err != nil {
			return 0, err
		}
		cep.Flush()
		if m := <-in.C; m == nil {
			return 0, errors.New("transport probe: echo timed out")
		}
		rtts = append(rtts, int64(time.Since(start)))
	}
	return exactQuantile(rtts, 0.5) / 1e3, nil
}

func (p *prober) transportProbes() error {
	client := message.Addr{Node: topo.ClientNodeBase + 1}
	inproc := transport.NewInproc(transport.InprocConfig{})
	defer inproc.Close()
	rtt, err := pingPong(inproc, client, message.Addr{Node: 0}, 2000*p.scale)
	if err != nil {
		return err
	}
	p.out["transport.inproc_rtt_us"] = rtt

	// A sandbox without loopback UDP reports 0 rather than failing the run.
	udp := transport.NewUDP("127.0.0.1", probeUDPBasePort, 2)
	if rtt, err := pingPong(udp, client, message.Addr{Node: 0}, 500*p.scale); err == nil {
		p.out["transport.udp_rtt_us"] = rtt
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: UDP probe skipped: %v\n", err)
	}
	udp.Close()

	// One coalesced broadcast to a three-replica group.
	var sinks []message.Addr
	for r := 1; r <= 3; r++ {
		a := message.Addr{Node: uint32(r)}
		ep, err := inproc.Listen(a, func(*message.Message) {})
		if err != nil {
			return err
		}
		defer ep.Close()
		sinks = append(sinks, a)
	}
	cep, err := inproc.Listen(client, func(*message.Message) {})
	if err != nil {
		return err
	}
	defer cep.Close()
	n := 2000 * p.scale
	batch := make([]transport.Outgoing, 3)
	var total time.Duration
	for i := 0; i < n; i++ {
		for j, a := range sinks {
			batch[j] = transport.Outgoing{Dst: a, M: &message.Message{Type: message.TypeCommit}}
		}
		start := time.Now()
		if err := cep.SendBatch(batch); err != nil {
			return err
		}
		total += time.Since(start)
	}
	p.out["transport.sendbatch3_us"] = meanNs(total, n) / 1e3
	return nil
}

// replicaProbes starts one replica directly and drives its handlers over
// inproc: validate (then an untimed commit, so state advances as in a real
// run) and multi-read.
func (p *prober) replicaProbes() error {
	net := transport.NewInproc(transport.InprocConfig{})
	defer net.Close()
	tp := topo.Topology{Partitions: 1, Replicas: 3, Cores: 2}
	rep, err := replica.New(replica.Config{Topo: tp, Partition: 0, Index: 0, Net: net, Store: p.store()})
	if err != nil {
		return err
	}
	if err := rep.Start(); err != nil {
		return err
	}
	defer rep.Stop()
	in := transport.NewInbox(4)
	ep, err := net.Listen(tp.ClientAddr(1), in.Handle)
	if err != nil {
		return err
	}
	defer ep.Close()
	defer watchdog(in, probeDeadline).Stop()
	dst := tp.ReplicaAddr(0, 0, 0)
	call := func(m *message.Message) (*message.Message, time.Duration, error) {
		start := time.Now()
		if err := ep.Send(dst, m); err != nil {
			return nil, 0, err
		}
		r := <-in.C
		if r == nil {
			return nil, 0, fmt.Errorf("replica probe: no reply to %v", m.Type)
		}
		return r, time.Since(start), nil
	}

	n := 1000 * p.scale
	vs := p.newVersions()
	rtts := make([]int64, 0, n)
	for _, sp := range p.writers[:n] {
		ts := p.nextTS()
		txn := vs.txn(sp, ts)
		r, d, err := call(&message.Message{Type: message.TypeValidate, Txn: txn, TID: txn.ID, TS: ts})
		if err != nil {
			return err
		}
		if r.Status != message.StatusValidatedOK {
			return fmt.Errorf("replica probe: transaction %v validated %v", txn.ID, r.Status)
		}
		rtts = append(rtts, int64(d))
		if err := ep.Send(dst, &message.Message{Type: message.TypeCommit, TID: txn.ID, Status: message.StatusCommitted}); err != nil {
			return err
		}
	}
	p.out["replica.validate_rtt_us"] = exactQuantile(rtts, 0.5) / 1e3

	rtts = rtts[:0]
	for i, sp := range p.readers[:n] {
		_, d, err := call(&message.Message{Type: message.TypeMultiRead, Keys: sp.gets, Seq: uint64(i)})
		if err != nil {
			return err
		}
		rtts = append(rtts, int64(d))
	}
	p.out["replica.multiread_rtt_us"] = exactQuantile(rtts, 0.5) / 1e3
	return nil
}

func (p *prober) walProbes() error {
	if err := os.RemoveAll(p.walDir); err != nil {
		return err
	}
	defer os.RemoveAll(p.walDir)
	st, _, err := wal.Open(p.walDir, 1, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return err
	}
	log := st.Log(0)
	vs := p.newVersions()
	specs := p.writers[:1000*p.scale]
	var total time.Duration
	for _, sp := range specs {
		ts := p.nextTS()
		txn := vs.txn(sp, ts)
		start := time.Now()
		log.AppendCommit(&txn, ts)
		total += time.Since(start)
	}
	p.out["wal.append_ns"] = meanNs(total, len(specs))

	syncs := make([]int64, 0, 5*p.scale)
	for _, sp := range specs[:cap(syncs)] {
		ts := p.nextTS()
		txn := vs.txn(sp, ts)
		log.AppendCommit(&txn, ts)
		start := time.Now()
		if err := log.Flush(); err != nil {
			st.Close()
			return fmt.Errorf("wal probe: %w", err)
		}
		syncs = append(syncs, int64(time.Since(start)))
	}
	p.out["wal.fsync_us"] = exactQuantile(syncs, 0.5) / 1e3
	return st.Close()
}

func (p *prober) shardmapProbe() {
	m := shardmap.New(4)
	n := 0
	start := time.Now()
	for _, sp := range p.ring[:2000*p.scale] {
		for _, k := range sp.gets {
			p.sink += uint64(m.GroupForKey(k))
			n++
		}
	}
	p.out["shardmap.lookup_ns"] = meanNs(time.Since(start), n)
}

func (p *prober) obsProbes() {
	sh := obs.NewRegistry().NewShard()
	n := 100000 * p.scale
	start := time.Now()
	for i := 0; i < n; i++ {
		sh.Inc(obs.TxnCommitFast)
	}
	p.out["obs.inc_ns"] = meanNs(time.Since(start), n)
	start = time.Now()
	for i := 0; i < n; i++ {
		sh.Observe(obs.HistCommit, time.Duration(20000+i&1023))
	}
	p.out["obs.observe_ns"] = meanNs(time.Since(start), n)
}

// run executes every probe and returns name -> value.
func (p *prober) run() (map[string]float64, error) {
	p.vstoreProbes()
	p.trecordProbe()
	p.shardmapProbe()
	p.obsProbes()
	for _, probe := range []func() error{p.occProbes, p.messageProbes, p.transportProbes, p.replicaProbes, p.walProbes} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// groupsPerTxn is the mean number of replica groups a spec of ring touches
// under map m.
func groupsPerTxn(ring []spec, m *shardmap.Map) float64 {
	total := 0
	for i := range ring {
		var seen uint64
		for _, keys := range [][]string{ring[i].gets, ring[i].puts} {
			for _, k := range keys {
				seen |= 1 << uint(m.GroupForKey(k))
			}
		}
		for ; seen != 0; seen &= seen - 1 {
			total++
		}
	}
	return float64(total) / float64(len(ring))
}
