package meerkat

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"meerkat/internal/faultnet"
)

// verifyCleanShutdown fails the test if anything this package started
// outlives the test's Close calls: a goroutine running meerkat code that was
// not there when the check was armed, or a file descriptor still open under
// dataDir ("" skips the fd check). Call it FIRST in a test — before the
// cluster is built and, for the fd check, right after t.TempDir() — so its
// cleanup runs after every Close the test registers or defers and before the
// temp dir is removed.
//
// It looks once, the moment the last Close has returned: every goroutine under
// Open belongs to a clock.Group that the Close of its owner joins, and a joined
// goroutine has left this module's code (see clock.Group).
func verifyCleanShutdown(t *testing.T, dataDir string) {
	t.Helper()
	before := meerkatGoroutines()
	t.Cleanup(func() {
		if dataDir != "" {
			if open := openFilesUnder(dataDir); len(open) > 0 {
				t.Errorf("file descriptors still open under the data dir after Close:\n  %s", strings.Join(open, "\n  "))
			}
		}
		for id, stack := range meerkatGoroutines() {
			if _, ok := before[id]; !ok {
				t.Errorf("a goroutine outlived Close:\n%s", stack)
			}
		}
	})
}

func runsCoordinator(stack string) bool {
	return strings.Contains(stack, "meerkat/internal/coordinator.")
}

var goroutineHeader = regexp.MustCompile(`^goroutine (\d+) \[`)

// meerkatGoroutines returns the stacks of all live goroutines that are
// executing this module's code, keyed by goroutine id. The caller's own
// goroutine (the test) is excluded.
func meerkatGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for i, stack := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the calling goroutine is printed first
		}
		m := goroutineHeader.FindStringSubmatch(stack)
		if m == nil || !strings.Contains(stack, "\nmeerkat") {
			continue
		}
		if strings.Contains(stack, "testing.tRunner") || strings.Contains(stack, "testing.(*T).Run") {
			continue // a test function's own goroutine, not something it leaked
		}
		out[m[1]] = stack
	}
	return out
}

// openFilesUnder lists this process's open file descriptors that resolve to
// paths under dir. Without /proc (non-Linux) it reports nothing.
func openFilesUnder(dir string) []string {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	var open []string
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestCloseMidCommitLeavesNoCoordinatorGoroutine closes a client while its
// cross-shard commit is stuck on a replica group no message reaches. The
// commit runs wholly on the goroutine that called it, so once that call has
// returned nothing of internal/coordinator may be running anywhere — checked
// at once, with no grace period.
func TestCloseMidCommitLeavesNoCoordinatorGoroutine(t *testing.T) {
	verifyCleanShutdown(t, "")
	const cut = 3                // the replica group behind the partition,
	nodes := []uint32{9, 10, 11} // its three replicas' nodes (checked below)
	db, err := Open(Config{Shards: 4, Seed: 1, CommitTimeout: 20 * time.Millisecond, Retries: 3, Faults: &faultnet.Plan{
		Events: []faultnet.Event{{At: 0, Op: faultnet.OpPartition, Groups: [][]uint32{nodes}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for r, n := range nodes {
		if got := db.Admin().NodeOf(cut, r); got != n {
			t.Fatalf("replica %d of group %d is node %d, the plan cuts off %d", r, cut, got, n)
		}
	}
	cl, err := db.Client()
	if err != nil {
		t.Fatal(err)
	}
	txn := cl.Begin()
	for g := 0; g < 4; g++ {
		txn.Write(keysOnShard(db, g, 1)[0], []byte("v"))
	}

	inCoordinator := func() (stacks []string) {
		for _, stack := range meerkatGoroutines() {
			if strings.Contains(stack, "meerkat/internal/coordinator.") {
				stacks = append(stacks, stack)
			}
		}
		return stacks
	}
	done := make(chan error, 1)
	go func() {
		_, err := txn.Commit()
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); len(inCoordinator()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the commit never reached the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	select {
	case err := <-done:
		// The injector drops what is bound for the cut-off group before the
		// closed endpoint sees it, so the resends report loss, not closure,
		// and the commit ends at its retry budget; a resend that does reach
		// the endpoint ends it at once with ErrClusterClosed.
		if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrClusterClosed) {
			t.Errorf("commit on a client closed under it: %v, want ErrTimeout or ErrClusterClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the commit did not notice its client was closed")
	}
	if left := inCoordinator(); len(left) > 0 {
		t.Errorf("coordinator goroutines still running after the commit returned:\n%s", strings.Join(left, "\n\n"))
	}
}

// TestStopJoinsSweeperRecoveries strands a transaction at one replica — the
// other two are cut off before the validate reaches them — so that replica's
// sweeper starts a recovery that cannot find a majority and keeps retrying.
// CrashReplica, and Close, must wait for it: once they return no recovery is
// running anywhere (the two replicas still up have nothing to recover), and
// after Close no recovery worker is left either — both checked at once, with
// no grace period.
func TestStopJoinsSweeperRecoveries(t *testing.T) {
	stops := map[string]func(db *DB){
		"CrashReplica": func(db *DB) { db.Admin().CrashReplica(0, 0) },
		"Close":        func(db *DB) { db.Close() },
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			verifyCleanShutdown(t, "")
			cutOff := []uint32{1, 2} // replicas 1 and 2 of the one group (checked below)
			db, err := Open(Config{
				Seed: 1, CommitTimeout: 5 * time.Millisecond, Retries: 1,
				SweepInterval: 10 * time.Millisecond, StaleAfter: 20 * time.Millisecond,
				Faults: &faultnet.Plan{Events: []faultnet.Event{{At: 0, Op: faultnet.OpPartition, Groups: [][]uint32{cutOff}}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i, n := range cutOff {
				if got := db.Admin().NodeOf(0, 1+i); got != n {
					t.Fatalf("replica %d is node %d, the plan cuts off %d", 1+i, got, n)
				}
			}
			cl, err := db.Client()
			if err != nil {
				t.Fatal(err)
			}
			txn := cl.Begin()
			txn.Write("stranded", []byte("v"))
			if _, err := txn.Commit(); !errors.Is(err, ErrTimeout) {
				t.Fatalf("commit with two replicas cut off: %v, want ErrTimeout", err)
			}
			cl.Close()

			recovering := func() (stacks []string) {
				for _, stack := range meerkatGoroutines() {
					if runsCoordinator(stack) {
						stacks = append(stacks, stack)
					}
				}
				return stacks
			}
			for deadline := time.Now().Add(5 * time.Second); len(recovering()) == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the sweeper never started a recovery")
				}
				time.Sleep(time.Millisecond)
			}
			stop(db)
			if left := recovering(); len(left) > 0 {
				t.Errorf("sweeper recoveries still running after the stop returned:\n%s", strings.Join(left, "\n\n"))
			}
		})
	}
}

// TestCloseLeavesNothingRunning opens a deployment of each shape, puts it to
// work and closes it, with the leak check — one look, no grace — armed: the
// delivery loops of inproc and the read loops of UDP, the WAL's group commit
// and snapshotter, the sweepers and, with a fault plan that delays every
// datagram past the commit's whole retry budget, the injector's delayed sends
// still in flight at the Close.
func TestCloseLeavesNothingRunning(t *testing.T) {
	slow := &faultnet.Plan{Seed: 1, Rules: []faultnet.Rule{faultnet.EveryLink(faultnet.Rule{DelayProb: 1, Delay: 50 * time.Millisecond})}}
	shapes := map[string]func(dir string) Config{
		"inproc": func(string) Config { return Config{Shards: 2, SweepInterval: 5 * time.Millisecond} },
		"udp":    func(string) Config { return Config{Transport: TransportUDP, UDPBasePort: 25000} },
		"durable": func(dir string) Config {
			return Config{Durability: Durability{DataDir: dir, SnapshotInterval: time.Millisecond}}
		},
		"delayed datagrams": func(string) Config {
			return Config{Transport: TransportUDP, UDPBasePort: 25200, Faults: slow,
				CommitTimeout: 5 * time.Millisecond, Retries: 1, BackoffMax: time.Millisecond}
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			verifyCleanShutdown(t, dir)
			cfg := shape(dir)
			cfg.Cores = 2
			db, err := Open(cfg)
			if sock := new(*net.OpError); errors.As(err, sock) {
				t.Skipf("cannot bind UDP sockets: %v", err)
			} else if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			cl, err := db.Client()
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 20 && err == nil; i++ {
				err = cl.Put(strconv.Itoa(i), []byte("v"))
			}
			if cfg.Faults == nil && err != nil {
				t.Fatalf("put: %v", err)
			}
			if cfg.Faults != nil {
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("put with every datagram 50 ms late: %v, want ErrTimeout", err)
				}
				if st := db.Admin().FaultNetwork().Stats().Summary(); st.Delayed == 0 {
					t.Fatalf("no send was delayed: %+v", st)
				}
			}
		})
	}
}

// TestReplicasRecoverUnderTheDeploymentsPolicy: the backup coordinator of
// every replica runs under the retry policy the deployment was configured
// with, as its clients, its epoch changes and its state transfers do.
func TestReplicasRecoverUnderTheDeploymentsPolicy(t *testing.T) {
	db := newTestDB(t, Config{CommitTimeout: 5 * time.Millisecond, Retries: 2, BackoffBase: time.Millisecond, BackoffMax: 3 * time.Millisecond})
	if got := db.replicaConfig(0, 0, nil, nil, false).Policy; got != db.policy() || got.Timeout != 5*time.Millisecond {
		t.Fatalf("replica recovery policy %+v, want the deployment's %+v", got, db.policy())
	}
}
