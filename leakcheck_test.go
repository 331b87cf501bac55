package meerkat

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// verifyCleanShutdown fails the test if anything this package started
// outlives the test's Close calls: a goroutine running meerkat code that was
// not there when the check was armed, or a file descriptor still open under
// dataDir ("" skips the fd check). Call it FIRST in a test — before the
// cluster is built and, for the fd check, right after t.TempDir() — so its
// cleanup runs after every Close the test registers or defers and before the
// temp dir is removed.
//
// Most goroutines are given a short grace period to finish: Close hands an
// endpoint's delivery goroutine a quit signal without joining it, and a
// fired timer callback may be mid-flight. A write to the data directory
// after Close returned is exactly what this exists to catch, so open fds and
// goroutines inside internal/wal — the only code that writes there — get no
// grace at all.
func verifyCleanShutdown(t *testing.T, dataDir string) {
	t.Helper()
	before := meerkatGoroutines()
	t.Cleanup(func() {
		if dataDir != "" {
			if open := openFilesUnder(dataDir); len(open) > 0 {
				t.Errorf("file descriptors still open under the data dir after Close:\n  %s", strings.Join(open, "\n  "))
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for first := true; ; first = false {
			leaked := ""
			for id, stack := range meerkatGoroutines() {
				if _, ok := before[id]; ok {
					continue
				}
				if first && strings.Contains(stack, "meerkat/internal/wal.") {
					t.Errorf("a WAL goroutine was still running when Close returned:\n%s", stack)
				}
				leaked += "\n" + stack + "\n"
			}
			if leaked == "" {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines outlived Close:%s", leaked)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
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
