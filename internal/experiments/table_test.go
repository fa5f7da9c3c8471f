package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("E4: victim gateway resources", "R1", "Ttmp", "peak filters", "analytic nv")
	tbl.AddRow(100.0, 600*time.Millisecond, 60, 60)
	tbl.AddRow(50.0, 600*time.Millisecond, 31, 30)
	tbl.AddNote("analytic nv = R1*Ttmp")
	out := tbl.String()
	for _, want := range []string{
		"== E4: victim gateway resources ==",
		"peak filters",
		"600ms",
		"note: analytic nv = R1*Ttmp",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows + note.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	// Columns align: header and first row share the column start.
	hdr, row := lines[1], lines[3]
	if strings.Index(hdr, "Ttmp") != strings.Index(row, "600ms") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableRagged(t *testing.T) {
	tbl := NewTable("ragged", "a", "b")
	tbl.AddRow(1, 2, 3) // extra cell must not panic
	out := tbl.String()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra cell dropped:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		42:       "42",
		0.000833: "8.33e-04",
		1.5:      "1.500",
		-3:       "-3",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatBps(t *testing.T) {
	cases := map[float64]string{
		500:    "500 B/s",
		2048:   "2.05 KB/s",
		3.2e6:  "3.20 MB/s",
		1.25e9: "1.25 GB/s",
	}
	for in, want := range cases {
		if got := FormatBps(in); got != want {
			t.Errorf("FormatBps(%v) = %q, want %q", in, got, want)
		}
	}
}
