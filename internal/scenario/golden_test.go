package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites testdata/fingerprints.golden from the current tree:
// go test -run TestFingerprintGolden ./internal/scenario/ -update. It is
// never implied: a change that moves a fingerprint changed simulated
// behaviour or event order, and regenerating is the statement that the
// move is intended.
var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

const goldenPath = "testdata/fingerprints.golden"

// goldenSuites are the seed sets whose trace fingerprints are pinned
// across commits: every suite the determinism tests replay run-to-run.
var goldenSuites = []struct {
	name  string
	seeds int64
	spec  func(seed int64) Spec
}{
	{"property", propertySeeds, GenSpec},
	{"chaos", propertySeeds, chaosSpec},
	{"failover", failoverSeeds, clusterSpec},
}

// TestFingerprintGolden compares each suite seed's Fingerprint and
// protocol-log length with the committed golden. The determinism tests
// only compare two runs of one binary, so a change to event order
// between commits (a scheduler or link-queue rewrite, a tie broken
// differently) passes them; this one fails on it.
func TestFingerprintGolden(t *testing.T) {
	type row struct {
		fingerprint uint64
		events      int
	}
	rows := make([][]row, len(goldenSuites))
	for i, suite := range goldenSuites {
		rows[i] = make([]row, suite.seeds)
	}
	t.Run("run", func(t *testing.T) {
		for i, suite := range goldenSuites {
			for seed := int64(1); seed <= suite.seeds; seed++ {
				out, spec := &rows[i][seed-1], suite.spec(seed)
				t.Run(fmt.Sprintf("%s/%d", suite.name, seed), func(t *testing.T) {
					t.Parallel()
					res := Run(spec)
					*out = row{res.Fingerprint, res.Events}
				})
			}
		}
	})

	var got bytes.Buffer
	got.WriteString("# suite seed fingerprint log_events — regenerate only with -update\n")
	for i, suite := range goldenSuites {
		for j, r := range rows[i] {
			fmt.Fprintf(&got, "%s %d %016x %d\n", suite.name, j+1, r.fingerprint, r.events)
		}
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
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, this tree produces %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
}
