package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"aitf/internal/obs/obstest"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	v := 2.5
	r.GaugeFunc("test_gauge", "a gauge", func() float64 { return v })
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.sorted()[0]
	if got := g.value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	v = -1
	if got := g.value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.CounterFunc("fn_total", "", func() uint64 { return n })
	r.GaugeFunc("fn_gauge", "", func() float64 { return float64(n) * 0.5 })
	n = 10
	snap := r.Snapshot()
	byName := map[string]float64{}
	for _, m := range snap {
		if m.Value != nil {
			byName[m.Name] = *m.Value
		}
	}
	if byName["fn_total"] != 10 || byName["fn_gauge"] != 5 {
		t.Fatalf("snapshot = %v", byName)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "")
	// Value 0 -> bucket 0 (le 0); 1 -> bucket 1 (le 1); 5 -> bucket 3
	// (le 7); 1024 -> bucket 11 (le 2047).
	for _, v := range []uint64{0, 1, 5, 1024} {
		h.Observe(v)
	}
	if h.count.Load() != 4 || h.sum.Load() != 1030 {
		t.Fatalf("count=%d sum=%d", h.count.Load(), h.sum.Load())
	}
	buckets, count, sum := h.snapshot()
	if count != 4 || sum != 1030 {
		t.Fatalf("snapshot count=%d sum=%d", count, sum)
	}
	for i, want := range map[int]uint64{0: 1, 1: 1, 3: 1, 11: 1} {
		if buckets[i] != want {
			t.Errorf("bucket[%d] = %d, want %d", i, buckets[i], want)
		}
	}
	if h.Observe(math.MaxUint64); h.count.Load() != 5 {
		t.Fatal("MaxUint64 observation lost")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("aitf_test_total", "things counted")
	r.GaugeFunc("aitf_test_ratio", "a ratio", func() float64 { return 0.25 })
	h := r.Histogram("aitf_test_batch", "batch sizes")
	c.Add(7)
	h.Observe(3)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP aitf_test_total things counted",
		"# TYPE aitf_test_total counter",
		"aitf_test_total 7",
		"# TYPE aitf_test_ratio gauge",
		"aitf_test_ratio 0.25",
		"# TYPE aitf_test_batch histogram",
		`aitf_test_batch_bucket{le="3"} 1`,
		`aitf_test_batch_bucket{le="127"} 2`,
		`aitf_test_batch_bucket{le="+Inf"} 2`,
		"aitf_test_batch_sum 103",
		"aitf_test_batch_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Name-sorted: batch < ratio < total.
	if strings.Index(out, "aitf_test_batch") > strings.Index(out, "aitf_test_ratio") ||
		strings.Index(out, "aitf_test_ratio") > strings.Index(out, "aitf_test_total") {
		t.Errorf("exposition not name-sorted:\n%s", out)
	}
}

// TestPrometheusParses runs a minimal text-format parser over the
// exposition: every non-comment line must be `name[{labels}] value`
// with a parseable float value, and every sample must follow a # TYPE
// for its family.
func TestPrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "with\nnewline").Add(1)
	r.Histogram("b_seconds", `back\slash`).Observe(42)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obstest.CheckExposition(sb.String()); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Add(3)
	r.Histogram("h", "").Observe(9)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"c_total"`, `"counter"`, `"value": 3`, `"histogram"`, `"sum": 9`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("con_total", "")
	h := r.Histogram("con_hist", "")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(uint64(j))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
		r.Snapshot()
	}
	wg.Wait()
	if c.Value() != 4000 || h.count.Load() != 4000 {
		t.Fatalf("counter=%d histCount=%d, want 4000", c.Value(), h.count.Load())
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op not meaningful under -race")
	}
	r := NewRegistry()
	c := r.Counter("z_total", "")
	h := r.Histogram("z_hist", "")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(17)
	}); n != 0 {
		t.Fatalf("record path allocates %v allocs/op, want 0", n)
	}
}
