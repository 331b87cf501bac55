package meerkat

import (
	"context"
	"errors"
	"testing"
	"time"

	"meerkat/internal/faultnet"
	"meerkat/internal/shardmap"
)

// TestConfigValidate exercises the documented defaults and the rejection of
// malformed configurations.
func TestConfigValidate(t *testing.T) {
	var cfg Config
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if cfg.Replicas != 3 || cfg.Cores != 4 || cfg.Shards != 1 || cfg.MaxShards != 1 {
		t.Fatalf("topology defaults not applied: %+v", cfg)
	}
	if cfg.CommitTimeout != 100*time.Millisecond || cfg.Retries != 10 {
		t.Fatalf("protocol defaults not applied: %+v", cfg)
	}
	if cfg.BackoffBase != 500*time.Microsecond || cfg.BackoffMax != 50*time.Millisecond {
		t.Fatalf("backoff defaults not applied: %+v", cfg)
	}

	bad := []Config{
		{Replicas: 2},
		{Replicas: -3},
		{Shards: -1},
		{Shards: 3, MaxShards: 2},
		{Faults: lossy(1, 1.5)},
		{CommitTimeout: -time.Second},
		{BackoffBase: time.Second, BackoffMax: time.Millisecond},
		{Faults: &faultnet.Plan{Rules: []faultnet.Rule{{DropProb: 7}}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, bad[i])
		}
	}
}

// TestSentinelClusterClosed checks that a closed DB reports ErrClusterClosed
// from DB.Client.
func TestSentinelClusterClosed(t *testing.T) {
	cluster, err := Open(Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Close()
	if _, err := cluster.Client(); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("Client on closed DB: %v, want ErrClusterClosed", err)
	}
}

// TestRunCommitExpiredResolves drives the unknown-outcome path end to end: a
// Run whose context expires between the body and the commit fails with an
// error unwrapping to both ErrTimeout and context.DeadlineExceeded, and
// Resolve then forces the final outcome through the recovery procedure.
func TestRunCommitExpiredResolves(t *testing.T) {
	cluster, err := Open(Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	var txn *Txn
	err = cl.Run(ctx, func(tx *Txn) error {
		txn = tx
		tx.Write("ctx-key", []byte("v"))
		<-ctx.Done() // the commit Run issues next finds its context expired
		return nil
	})
	if err == nil {
		t.Fatal("expired-context commit succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("commit error %v does not unwrap to ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("commit error %v does not carry context.DeadlineExceeded", err)
	}

	committed, err := txn.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	// No validate was ever sent, so recovery must decide abort — and the
	// key must be unreadable.
	if committed {
		t.Fatal("Resolve reported commit for a never-sent transaction")
	}
	if v, err := cl.GetStrong("ctx-key"); err != nil || v != nil {
		t.Fatalf("aborted write visible: (%q, %v)", v, err)
	}

	// Resolving twice is an error: the uncertainty is gone.
	if _, err := txn.Resolve(); err == nil {
		t.Fatal("second Resolve succeeded")
	}
}

// TestRunRetriesConflict forces a validation conflict on the first attempt
// and checks that Run retries to success.
func TestRunRetriesConflict(t *testing.T) {
	cluster, err := Open(Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	a, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Put("counter", []byte("0")); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err = a.Run(context.Background(), func(txn *Txn) error {
		attempts++
		if _, err := txn.Read("counter"); err != nil {
			return err
		}
		if attempts == 1 {
			// A conflicting write from another client invalidates the
			// read set of attempt one.
			if err := b.Put("counter", []byte("9")); err != nil {
				return err
			}
		}
		txn.Write("counter", []byte("1"))
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if attempts < 2 {
		t.Fatalf("Run succeeded in %d attempts, want a conflict retry", attempts)
	}
	if v, err := a.GetStrong("counter"); err != nil || string(v) != "1" {
		t.Fatalf("counter = (%q, %v), want \"1\"", v, err)
	}
}

// TestRunCtxCanceled checks that Run exits with ErrTimeout once its context
// is canceled rather than retrying forever.
func TestRunCtxCanceled(t *testing.T) {
	cluster, err := Open(Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = cl.Run(ctx, func(txn *Txn) error {
		txn.Write("k", []byte("v"))
		return nil
	})
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under canceled ctx: %v, want ErrTimeout wrapping context.Canceled", err)
	}
}

// TestRunPropagatesFnError checks that fn's own errors abort the loop
// unretried.
func TestRunPropagatesFnError(t *testing.T) {
	cluster, err := Open(Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	calls := 0
	err = cl.Run(context.Background(), func(txn *Txn) error {
		calls++
		return ErrTxnAborted
	})
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("Run: %v, want ErrTxnAborted", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1 (no retry on fn errors)", calls)
	}
}

// TestClusterFaultPlan boots a cluster with a fault plan, checks the
// injector is wired into the fabric (stats move, events fire) and that the
// workload still commits through it.
func TestClusterFaultPlan(t *testing.T) {
	plan := &faultnet.Plan{
		Seed:  11,
		Rules: []faultnet.Rule{faultnet.EveryLink(faultnet.Rule{DropProb: 0.05})},
		Events: []faultnet.Event{
			{At: 1, Op: faultnet.OpHeal}, // benign marker event
		},
	}
	cluster, err := Open(Config{Cores: 2, Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.Admin().FaultNetwork() == nil {
		t.Fatal("FaultNetwork is nil with Config.Faults set")
	}
	cl, err := cluster.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 50; i++ {
		if err := cl.Run(context.Background(), func(txn *Txn) error {
			txn.Write("k", []byte{byte(i)})
			return nil
		}); err != nil {
			t.Fatalf("Run %d under 5%% loss: %v", i, err)
		}
	}
	st := cluster.Admin().FaultNetwork().Stats()
	if st.Sent.Load() == 0 || st.Dropped.Load() == 0 {
		t.Fatalf("injector saw no traffic: sent=%d dropped=%d", st.Sent.Load(), st.Dropped.Load())
	}
	select {
	case ev := <-cluster.Admin().FaultEvents():
		if ev.Op != faultnet.OpHeal {
			t.Fatalf("event %+v, want heal", ev)
		}
	default:
		t.Fatal("scheduled event never fired")
	}
}

// TestRunDeadlineBoundsReads pins the one rule of the API: the context given
// to Run bounds everything inside it. With every replica down, a body that
// reads must fail by the deadline — not after the retry budget of a read that
// never saw the context — with an error that is both ErrTimeout and the
// context's own.
func TestRunDeadlineBoundsReads(t *testing.T) {
	bodies := map[string]func(*Txn) error{
		"Read":     func(tx *Txn) error { _, err := tx.Read("k"); return err },
		"ReadMany": func(tx *Txn) error { _, err := tx.ReadMany([]string{"k", "k2"}); return err },
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, Config{})
			cl := newDBClient(t, db)
			for r := 0; r < 3; r++ {
				db.Admin().CrashReplica(0, r)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := cl.Run(ctx, body)
			if took := time.Since(start); took > 250*time.Millisecond {
				t.Errorf("Run under a 50ms deadline returned after %v", took)
			}
			if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Run error %v, want ErrTimeout wrapping context.DeadlineExceeded", err)
			}
		})
	}
}

// TestErrorContract checks that every error-returning method of Client and
// Txn (a Session's workers are Clients) reports protocol failures through the
// package sentinels: replicas down is ErrTimeout, a key on a range sealed
// mid-split is ErrWrongShard, a closed DB is ErrClusterClosed.
func TestErrorContract(t *testing.T) {
	// A key in the upper half of the hash space: the range a first split moves.
	key := keysByHashHalf(2)[1]
	type op struct {
		name string
		call func(cl *Client) error
	}
	ops := []op{
		{"Txn.Read", func(cl *Client) error { _, err := cl.Begin().Read(key); return err }},
		{"Txn.ReadMany", func(cl *Client) error { _, err := cl.Begin().ReadMany([]string{key}); return err }},
		{"Txn.Commit", func(cl *Client) error {
			txn := cl.Begin()
			txn.Write(key, []byte("v"))
			_, err := txn.Commit()
			return err
		}},
		{"Client.Get", func(cl *Client) error { _, err := cl.Get(key); return err }},
	}
	// Run, GetStrong and Put retry wrong-shard redirects themselves, so they
	// join only the cases whose failure they surface.
	run := op{"Client.Run", func(cl *Client) error {
		// Run retries timed-out reads for as long as its context lasts.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		return cl.Run(ctx, func(tx *Txn) error { _, err := tx.Read(key); return err })
	}}
	put := op{"Client.Put", func(cl *Client) error { return cl.Put(key, []byte("v")) }}
	getStrong := op{"Client.GetStrong", func(cl *Client) error { _, err := cl.GetStrong(key); return err }}
	// Resolve needs a commit that timed out first.
	resolve := op{"Txn.Resolve", func(cl *Client) error {
		txn := cl.Begin()
		txn.Write(key, []byte("v"))
		if _, err := txn.Commit(); !errors.Is(err, ErrTimeout) {
			return err
		}
		_, err := txn.Resolve()
		return err
	}}
	with := func(more ...op) []op { return append(append([]op(nil), ops...), more...) }

	cases := []struct {
		name  string
		want  error
		ops   []op
		build func(t *testing.T) *DB
	}{
		{"replicas crashed", ErrTimeout, with(resolve, run, put, getStrong), func(t *testing.T) *DB {
			db := newTestDB(t, Config{CommitTimeout: 2 * time.Millisecond, Retries: 1, BackoffMax: time.Millisecond})
			for r := 0; r < 3; r++ {
				db.Admin().CrashReplica(0, r)
			}
			return db
		}},
		{"range sealed mid-split", ErrWrongShard, with(), func(t *testing.T) *DB {
			db := newTestDB(t, Config{Shards: 1, MaxShards: 2})
			// Step 1 of Admin.Split and no further: shard 0 redirects the
			// moved range, and no newer map is published for a refresh to find.
			next, lo, hi, err := db.source.Current().Split(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !shardmap.InRange(shardmap.Hash(key), lo, hi) {
				t.Fatalf("%q is not in the moved range; pick another key", key)
			}
			db.own[0].Install(next)
			return db
		}},
		{"closed DB", ErrClusterClosed, with(run, getStrong, put), func(t *testing.T) *DB {
			return newTestDB(t, Config{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.build(t)
			cl := newDBClient(t, db)
			sess, err := db.Session(WithPipeline(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sess.Close)
			if tc.want == ErrClusterClosed {
				db.Close()
			}
			for _, o := range tc.ops {
				for who, c := range map[string]*Client{"client": cl, "session worker": sess.Clients()[1]} {
					if err := o.call(c); !errors.Is(err, tc.want) {
						t.Errorf("%s on a %s: %v, want %v", o.name, who, err, tc.want)
					}
				}
			}
		})
	}
}
