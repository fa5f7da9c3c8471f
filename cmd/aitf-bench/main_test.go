package main

import (
	"strings"
	"testing"
)

// TestRunRendersAndRejects: a known ID renders its table, and an
// unknown one — including anything shaped like a flag, since the
// command takes none — exits 2 with a message on stderr.
func TestRunRendersAndRejects(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"E1"}, &out, &errOut); code != 0 {
		t.Fatalf("E1 exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "E1") {
		t.Fatalf("E1 rendered nothing recognisable:\n%s", out.String())
	}
	for _, bad := range []string{"E99", "-json"} {
		out.Reset()
		errOut.Reset()
		if code := run([]string{bad}, &out, &errOut); code != 2 {
			t.Fatalf("%q exited %d, want 2", bad, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "unknown experiment") {
			t.Fatalf("%q: stdout %q, stderr %q", bad, out.String(), errOut.String())
		}
	}
}
