package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites testdata/aitf-bench.golden from the current tree:
// go test -run TestOutputGolden ./cmd/aitf-bench/ -update. Every table
// is an exact count of a seeded simulation, so any change to the output
// is a change in simulated behaviour; regenerating is the statement
// that it is intended.
var update = flag.Bool("update", false, "rewrite testdata/aitf-bench.golden")

const goldenPath = "testdata/aitf-bench.golden"

// TestOutputGolden renders every experiment, as aitf-bench with no
// arguments does, and compares the output byte for byte with the
// committed golden.
func TestOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment (about a second); skipped under -short")
	}
	var got, errOut bytes.Buffer
	if code := run(nil, &got, &errOut); code != 0 {
		t.Fatalf("run exited %d: %s", code, errOut.String())
	}
	if *update {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d: got %q, golden %q (%d lines against %d)", i+1, g, w, len(gotLines), len(wantLines))
		}
	}
}
