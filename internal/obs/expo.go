package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE lines followed
// by samples, name-sorted. Histograms expand to the cumulative
// _bucket{le="..."} / _sum / _count family with log2 upper bounds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, m := range r.sorted() {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		if m.kind == KindHistogram {
			writePromHistogram(&b, m.name, m.hist)
		} else {
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.value()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePromHistogram(b *strings.Builder, name string, h *Histogram) {
	buckets, count, sum := h.snapshot()
	cum := uint64(0)
	for i, n := range buckets {
		cum += n
		if n == 0 && i > 0 {
			continue // keep exposition compact; cumulative counts stay exact
		}
		// Bucket i holds values with bits.Len64(v) == i, so its upper
		// bound is 2^i - 1.
		ub := uint64(1)<<uint(i) - 1
		fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", name, ub, cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, count)
	fmt.Fprintf(b, "%s_sum %d\n", name, sum)
	fmt.Fprintf(b, "%s_count %d\n", name, count)
}

// escapeHelp escapes backslashes and newlines per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value: integral values without an
// exponent so counters read naturally.
func formatFloat(v float64) string {
	if v == float64(uint64(v)) {
		return strconv.FormatUint(uint64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// HistogramSnapshot is a histogram's JSON form: parallel upper-bound /
// count slices for the non-empty buckets only.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	// Le holds the inclusive upper bound of each non-empty bucket
	// (2^i - 1); Counts the per-bucket (non-cumulative) counts.
	Le     []uint64 `json:"le,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
}

// MetricSnapshot is one metric's JSON form.
type MetricSnapshot struct {
	Name      string             `json:"name"`
	Kind      string             `json:"kind"`
	Help      string             `json:"help,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot returns the current value of every metric, name-sorted.
func (r *Registry) Snapshot() []MetricSnapshot {
	ms := r.sorted()
	out := make([]MetricSnapshot, 0, len(ms))
	for i := range ms {
		m := &ms[i]
		s := MetricSnapshot{Name: m.name, Kind: m.kind.String(), Help: m.help}
		if m.kind == KindHistogram {
			buckets, count, sum := m.hist.snapshot()
			hs := &HistogramSnapshot{Count: count, Sum: sum}
			for i, n := range buckets {
				if n == 0 {
					continue
				}
				hs.Le = append(hs.Le, uint64(1)<<uint(i)-1)
				hs.Counts = append(hs.Counts, n)
			}
			s.Histogram = hs
		} else {
			v := m.value()
			s.Value = &v
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON (the /metrics.json and
// aitf-scenario -metrics-json representation).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
