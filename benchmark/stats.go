package main

import (
	"runtime"
	"slices"
	"sort"
	"time"
)

// Value is one reported number. Trials holds the per-trial values the
// headline value is the median of; Samples counts the raw observations
// behind them (datagrams, rounds, events, scenarios).
type Value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Trials  []float64 `json:"trials,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// median returns the middle of vs (mean of the two middles when even);
// 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the q-quantile (0..1) of sorted ns by nearest rank.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// latencies collects per-operation durations for one trial in a
// preallocated buffer, so recording never allocates mid-measurement.
type latencies struct{ ns []int64 }

func newLatencies(capacity int) *latencies { return &latencies{ns: make([]int64, 0, capacity)} }

func (l *latencies) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }
func (l *latencies) reset()              { l.ns = l.ns[:0] }

// quantilesUs sorts the samples in place and returns p50 and p99 in µs
// and the sample count.
func (l *latencies) quantilesUs() (p50, p99 float64, n int) {
	slices.Sort(l.ns)
	return percentile(l.ns, 0.50) / 1e3, percentile(l.ns, 0.99) / 1e3, len(l.ns)
}

// trialSet accumulates one value per trial for a set of metrics and
// reduces each to the run's value: the median over the trials. There
// are two exceptions, both because interference on a shared host only
// ever slows work down. A metric reported in its fast mode (see
// fwdTrial) pools fine-grained cost samples over all trials and takes
// their 1st percentile. The throughput of a workload whose trials
// repeat exactly the same work (the simulator ones) takes each segment
// of that work at the fastest of its repetitions.
type trialSet struct {
	unit    map[string]string
	vals    map[string][]float64
	samples map[string]int
	fast    map[string][]float64
	repeats [][]time.Duration // per trial, the time each segment took
	ops     int               // operations in one trial's segments
}

func newTrialSet() *trialSet {
	return &trialSet{unit: map[string]string{}, vals: map[string][]float64{}, samples: map[string]int{}, fast: map[string][]float64{}}
}

// add adds one trial's value of a metric.
func (t *trialSet) add(name, unit string, v float64, samples int) {
	t.unit[name] = unit
	t.vals[name] = append(t.vals[name], v)
	t.samples[name] += samples
}

// addFast pools cost samples of a fast-mode metric: lower is faster. For
// a rate (unit 1/s) a sample is the seconds one operation took.
func (t *trialSet) addFast(name string, costs ...float64) {
	t.fast[name] = append(t.fast[name], costs...)
}

// addStage adds one trial's batches (ns/op each) of a layer stage that
// makes a socket call. Such a call has the two prices fwdTrial explains,
// so the stage is reported in its fast mode too.
func (t *trialSet) addStage(name string, perOp []float64) {
	t.add(name, "ns", median(perOp), len(perOp))
	t.addFast(name, perOp...)
}

// addThroughput adds a trial's ops_per_s: ops operations in d.
func (t *trialSet) addThroughput(ops int, d time.Duration) {
	t.add("ops_per_s", "1/s", float64(ops)/d.Seconds(), ops)
}

// addRepeat adds the ops_per_s of a trial that does the same work as
// every other, timed segment by segment; ops is what the segments
// complete together.
func (t *trialSet) addRepeat(segs []time.Duration, ops int) {
	var total time.Duration
	for _, d := range segs {
		total += d
	}
	t.repeats, t.ops = append(t.repeats, segs), ops
	t.addThroughput(ops, total)
}

// addLatency adds a trial's op_p50_us and its 99th percentile, which is
// reported with the per-layer metrics, not gated.
func (t *trialSet) addLatency(p50, p99 float64, samples int) {
	t.add("op_p50_us", "us", p50, samples)
	t.add("bench.op_p99_us", "us", p99, samples)
}

// addHeap adds mem_mb as the live heap at the end of a trial, the rig
// still held.
func (t *trialSet) addHeap() float64 {
	mb := heapInuseMB()
	t.add("mem_mb", "MB", mb, 1)
	return mb
}

// value reduces the named metric to the run's value.
func (t *trialSet) value(name string) float64 {
	if name == "ops_per_s" && t.repeats != nil {
		var best time.Duration
		for i := range t.repeats[0] {
			fastest := t.repeats[0][i]
			for _, trial := range t.repeats[1:] {
				fastest = min(fastest, trial[i])
			}
			best += fastest
		}
		return float64(t.ops) / best.Seconds()
	}
	costs := t.fast[name]
	if len(costs) == 0 {
		return median(t.vals[name])
	}
	sorted := slices.Clone(costs)
	slices.Sort(sorted)
	p01 := sorted[len(sorted)/100]
	if t.unit[name] == "1/s" {
		return 1 / p01
	}
	return p01
}

// into writes every accumulated metric's value and trial values to out.
func (t *trialSet) into(out map[string]Value) {
	for name, vs := range t.vals {
		out[name] = Value{Value: t.value(name), Unit: t.unit[name], Trials: vs, Samples: t.samples[name]}
	}
}

// heapInuseMB returns the live heap in MB: the memory the program still
// holds once the measured phase is over. It collects twice, because a
// sync.Pool's contents survive the first collection.
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// allocatedMB returns the process-wide cumulative bytes allocated, in MB.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// mallocs returns the process-wide cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeOps runs fn (which performs n operations) and returns ns/op.
func timeOps(n int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / float64(n)
}

// allocsPerOp returns heap allocations per operation over fn, which
// performs n operations on the calling goroutine. The count is
// process-wide, so callers keep other goroutines idle meanwhile.
func allocsPerOp(n int, fn func()) float64 {
	before := mallocs()
	fn()
	return float64(mallocs()-before) / float64(n)
}
