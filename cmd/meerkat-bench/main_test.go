package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSkipRealIsDeterministic: with -skip-real no section runs the real
// implementation, so the output is the same bytes on every run.
func TestSkipRealIsDeterministic(t *testing.T) {
	args := []string{"-exp", "fig4", "-skip-real", "-threads", "2,8"}
	var first, second, errw bytes.Buffer
	for _, out := range []*bytes.Buffer{&first, &second} {
		if code := run(args, out, &errw); code != 0 {
			t.Fatalf("exit %d: %s", code, errw.String())
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
	if got := first.String(); strings.Contains(got, "(measured") || !strings.Contains(got, "Figure 4 (simulated") {
		t.Fatalf("unexpected sections:\n%s", got)
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-faults"},
		{"-exp", "table1", "-threads", "2,x"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 || errw.Len() == 0 {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a message", args, code, errw.String())
		}
	}
}
