// Package bench is the benchmark harness behind the paper's evaluation
// (§6): it assembles the four prototype systems of Table 1 behind one
// client interface, drives them with closed-loop clients running the YCSB-T
// and Retwis workloads, and reports goodput and abort rates.
//
//	System      cross-core coordination   cross-replica coordination
//	KuaFu++     yes (counter+log+record)  yes (primary-backup)
//	TAPIR       yes (shared record)       no
//	Meerkat-PB  no                        yes (primary-backup)
//	Meerkat     no                        no
package bench

import (
	"context"
	"fmt"
	"time"

	"meerkat"
	"meerkat/internal/clock"
	"meerkat/internal/kuafu"
	"meerkat/internal/meerkatpb"
	"meerkat/internal/obs"
	"meerkat/internal/pbclient"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
)

// Txn is the common transaction surface the harness drives. ReadMany is the
// batched execution phase: Meerkat serves it in one round trip per touched
// partition, while the PB baselines fall back to a per-key loop.
type Txn interface {
	Read(key string) ([]byte, error)
	ReadMany(keys []string) ([][]byte, error)
	Write(key string, value []byte)
	Commit() (bool, error)
}

// Client issues transactions; one per closed-loop client goroutine.
type Client interface {
	Begin() Txn
	// Run executes fn inside transactions until one commits, retrying
	// conflict aborts, and reports how many attempts it took (>= 1 on
	// success). It is the canonical loop the harness measures: the Meerkat
	// systems route it through the public Client.Run (backoff, resolution
	// of unknown outcomes), the PB baselines through a plain retry loop.
	Run(ctx context.Context, fn func(Txn) error) (attempts int, err error)
	Close()
}

// System is one of the four evaluation prototypes.
type System interface {
	NewClient() (Client, error)
	Load(key string, value []byte)
	Close()
	// Obs returns the system's observability registry (never nil). The
	// harness snapshots it around the measured window for path-ratio
	// breakdowns; systems without lifecycle instrumentation (the PB
	// baselines) expose transport gauges only.
	Obs() *obs.Registry
}

// SystemKind names the four prototypes.
type SystemKind string

// The four systems of Table 1.
const (
	SystemMeerkat   SystemKind = "meerkat"
	SystemMeerkatPB SystemKind = "meerkat-pb"
	SystemTAPIR     SystemKind = "tapir"
	SystemKuaFu     SystemKind = "kuafu++"
)

// AllSystems lists the four prototypes in the paper's presentation order.
var AllSystems = []SystemKind{SystemMeerkat, SystemMeerkatPB, SystemTAPIR, SystemKuaFu}

// SystemConfig sizes a system under test.
type SystemConfig struct {
	Kind  SystemKind
	Cores int // server threads per replica
	// Obs, when non-nil, is wired through the system so one registry (and
	// one HTTP exporter) can observe a whole sweep. Defaults to a fresh
	// registry per system.
	Obs *obs.Registry
}

// Every system runs the paper's three replicas and gives a round trip the
// same wait and retry budget.
const (
	systemReplicas = 3
	systemTimeout  = 200 * time.Millisecond
	systemRetries  = 20
)

// NewSystem builds and starts the requested system on an in-process
// network.
func NewSystem(cfg SystemConfig) (System, error) {
	switch cfg.Kind {
	case SystemMeerkat, SystemTAPIR:
		return openMeerkat(meerkat.Config{
			Replicas:      systemReplicas,
			Cores:         cfg.Cores,
			SharedTRecord: cfg.Kind == SystemTAPIR,
			CommitTimeout: systemTimeout,
			Retries:       systemRetries,
			Obs:           cfg.Obs,
		})
	case SystemMeerkatPB, SystemKuaFu:
		return newPBSystem(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown system %q", cfg.Kind)
	}
}

// meerkatSystem adapts a meerkat.DB — Meerkat itself, or the TAPIR-like
// baseline via SharedTRecord — to the harness's System interface.
type meerkatSystem struct {
	db *meerkat.DB
}

// openMeerkat opens a deployment per cfg behind the adapter.
func openMeerkat(cfg meerkat.Config) (*meerkatSystem, error) {
	db, err := meerkat.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &meerkatSystem{db: db}, nil
}

func (s *meerkatSystem) Obs() *obs.Registry            { return s.db.Admin().Obs() }
func (s *meerkatSystem) Load(key string, value []byte) { s.db.Load(key, value) }
func (s *meerkatSystem) Close()                        { s.db.Close() }

func (s *meerkatSystem) NewClient() (Client, error) {
	cl, err := s.db.Client()
	if err != nil {
		return nil, err
	}
	return &meerkatClient{cl}, nil
}

type meerkatClient struct{ cl *meerkat.Client }

func (c *meerkatClient) Begin() Txn { return c.cl.Begin() }
func (c *meerkatClient) Close()     { c.cl.Close() }

func (c *meerkatClient) Run(ctx context.Context, fn func(Txn) error) (int, error) {
	attempts := 0
	err := c.cl.Run(ctx, func(t *meerkat.Txn) error {
		attempts++
		return fn(t)
	})
	return attempts, err
}

// pbSystem hosts the KuaFu++ and Meerkat-PB replica groups.
type pbSystem struct {
	cfg    SystemConfig
	topo   topo.Topology
	net    *transport.Inproc
	stores []*vstore.Store
	stop   []func()
	nextID uint64
}

func newPBSystem(cfg SystemConfig) (System, error) {
	tp := topo.Topology{Partitions: 1, Replicas: systemReplicas, Cores: cfg.Cores}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := &pbSystem{cfg: cfg, topo: tp, net: transport.NewInproc(transport.InprocConfig{})}
	s.net.RegisterObs(cfg.Obs)
	for i := 0; i < systemReplicas; i++ {
		var rep interface {
			Start() error
			Store() *vstore.Store
			Stop()
		}
		var err error
		if cfg.Kind == SystemKuaFu {
			rep, err = kuafu.New(kuafu.Config{Topo: tp, Index: i, Net: s.net})
		} else {
			rep, err = meerkatpb.New(meerkatpb.Config{Topo: tp, Index: i, Net: s.net})
		}
		if err != nil {
			return nil, err
		}
		if err := rep.Start(); err != nil {
			return nil, err
		}
		s.stores = append(s.stores, rep.Store())
		s.stop = append(s.stop, rep.Stop)
	}
	return s, nil
}

func (s *pbSystem) Obs() *obs.Registry { return s.cfg.Obs }

func (s *pbSystem) Load(key string, value []byte) {
	ts := timestamp.Timestamp{Time: 1, ClientID: 0}
	for _, st := range s.stores {
		st.Load(key, value, ts)
	}
}

func (s *pbSystem) Close() {
	for _, stop := range s.stop {
		stop()
	}
	s.net.Close()
}

func (s *pbSystem) NewClient() (Client, error) {
	s.nextID++
	cl, err := pbclient.New(pbclient.Config{
		Topo:             s.topo,
		ClientID:         s.nextID,
		Net:              s.net,
		Clock:            clock.NewReal(),
		ClientTimestamps: s.cfg.Kind == SystemMeerkatPB,
		Timeout:          systemTimeout,
		Retries:          systemRetries,
	})
	if err != nil {
		return nil, err
	}
	return &pbClientAdapter{cl}, nil
}

type pbClientAdapter struct{ cl *pbclient.Client }

func (c *pbClientAdapter) Begin() Txn { return c.cl.Begin() }
func (c *pbClientAdapter) Close()     { c.cl.Close() }

func (c *pbClientAdapter) Run(ctx context.Context, fn func(Txn) error) (int, error) {
	for attempts := 1; ; attempts++ {
		if err := ctx.Err(); err != nil {
			return attempts - 1, err
		}
		txn := c.cl.Begin()
		if err := fn(txn); err != nil {
			return attempts, err
		}
		ok, err := txn.Commit()
		if err != nil {
			return attempts, err
		}
		if ok {
			return attempts, nil
		}
	}
}
