package dataplane

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
)

const benchBatchSize = 64

// BenchmarkDataplaneThroughput is the acceptance family: concurrent
// batch classification in packets/sec across shard counts, table
// sizes, hit/miss mixes, and — the multi-core axis the lock-free read
// path exists for — an explicit goroutine sweep. One benchmark op is
// one 64-packet batch; b.N ops are split across exactly `goroutines`
// workers with private batches and verdict slices, so the reported pps
// metric is the aggregate across that worker count (clamped in speedup
// only by GOMAXPROCS, not by the engine).
func BenchmarkDataplaneThroughput(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		for _, filters := range []int{1024, 4096, 65536} {
			for _, mix := range workloadMixes {
				for _, goroutines := range []int{1, 2, 4, 8} {
					name := fmt.Sprintf("shards=%d/filters=%d/mix=%s/goroutines=%d",
						shards, filters, mix.name, goroutines)
					b.Run(name, func(b *testing.B) {
						e := workloadEngine(shards, filters)
						b.ReportAllocs()
						b.ResetTimer()
						var wg sync.WaitGroup
						per := b.N / goroutines
						rem := b.N % goroutines
						for w := 0; w < goroutines; w++ {
							n := per
							if w < rem {
								n++
							}
							wg.Add(1)
							go func(seed int64, n int) {
								defer wg.Done()
								rng := rand.New(rand.NewSource(seed + 42))
								batch := workloadBatch(rng, filters, benchBatchSize, mix.frac)
								verdicts := make([]Verdict, 0, benchBatchSize)
								for i := 0; i < n; i++ {
									verdicts = e.ClassifyInto(batch, verdicts)
								}
							}(int64(w), n)
						}
						wg.Wait()
						b.StopTimer()
						if s := b.Elapsed().Seconds(); s > 0 {
							b.ReportMetric(float64(b.N)*benchBatchSize/s, "pps")
						}
					})
				}
			}
		}
	}
}

// BenchmarkDataplaneInstrumented prices live metrics on the hot path:
// the same mixed workload classified by an uninstrumented engine and by
// one carrying the full obs registry (classified counter and batch-size
// histogram). Compare the two sub-benchmarks' pps from one run; the
// instrumented leg must also report 0 allocs/op.
func BenchmarkDataplaneInstrumented(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		leg := "bare"
		if instrumented {
			leg = "instrumented"
		}
		for _, filters := range []int{4096, 65536} {
			b.Run(fmt.Sprintf("%s/filters=%d", leg, filters), func(b *testing.B) {
				e := workloadEngine(4, filters)
				if instrumented {
					e.Instrument(obs.NewRegistry())
				}
				rng := rand.New(rand.NewSource(42))
				batch := workloadBatch(rng, filters, benchBatchSize, 0.5)
				verdicts := make([]Verdict, 0, benchBatchSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					verdicts = e.ClassifyInto(batch, verdicts)
				}
				b.StopTimer()
				if s := b.Elapsed().Seconds(); s > 0 {
					b.ReportMetric(float64(b.N)*benchBatchSize/s, "pps")
				}
			})
		}
	}
}

// BenchmarkDataplaneWildcardThroughput is the indexed-match acceptance
// family: batch classification over tables whose non-exact population
// (source-/24 prefixes in the prefix directory plus dst-anchored
// wildcards in the destination directory) scales from thousands to a
// million entries. The
// pre-change design walked a linear scan list per packet for these
// shapes, so its cost grew with nonexact; the indexed hierarchy must
// stay within a small constant of the pure-pair engine at every size.
func BenchmarkDataplaneWildcardThroughput(b *testing.B) {
	const pairs = 4096
	for _, nonExact := range []int{4096, 65536, 262144, 1 << 20} {
		for _, wildFrac := range []float64{0.5, 0.9} {
			name := fmt.Sprintf("pairs=%d/nonexact=%d/wildfrac=%.1f", pairs, nonExact, wildFrac)
			b.Run(name, func(b *testing.B) {
				e := wildcardWorkloadEngine(4, pairs, nonExact)
				rng := rand.New(rand.NewSource(21))
				batch := wildcardWorkloadBatch(rng, pairs, nonExact, benchBatchSize, wildFrac)
				verdicts := make([]Verdict, 0, benchBatchSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					verdicts = e.ClassifyInto(batch, verdicts)
				}
				b.StopTimer()
				if s := b.Elapsed().Seconds(); s > 0 {
					b.ReportMetric(float64(b.N)*benchBatchSize/s, "pps")
				}
			})
		}
	}
}

// BenchmarkScanListBaseline measures the pre-change alternative — a
// naive linear scan of every non-exact label per packet — at a size
// where it is still measurable. The ratio against the wildcard
// throughput family above is the speedup the indexed match hierarchy
// buys (the acceptance bar is ≥10x at 4k+ non-exact filters).
func BenchmarkScanListBaseline(b *testing.B) {
	const pairs, nonExact = 4096, 4096
	labels := wildcardWorkloadLabels(nonExact)
	rng := rand.New(rand.NewSource(21))
	batch := wildcardWorkloadBatch(rng, pairs, nonExact, benchBatchSize, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	matched := 0
	for i := 0; i < b.N; i++ {
		for _, p := range batch {
			tup := p.Tuple()
			for j := range labels {
				if labels[j].Matches(tup) {
					matched++
					break
				}
			}
		}
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*benchBatchSize/s, "pps")
	}
	_ = matched
}

// BenchmarkDataplaneSinglePacket compares the unbatched path, which is
// what the simulator's per-packet delivery uses.
func BenchmarkDataplaneSinglePacket(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := workloadEngine(shards, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			var worker int64
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(worker + 7))
				worker++
				batch := workloadBatch(rng, 4096, 256, 0.5)
				i := 0
				for pb.Next() {
					p := batch[i%len(batch)]
					e.ClassifyTuple(p.Tuple(), int(p.PayloadLen))
					i++
				}
			})
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "pps")
			}
		})
	}
}

// BenchmarkDataplaneInstallChurn measures the control plane: installs
// and expiry racing classification.
func BenchmarkDataplaneInstallChurn(b *testing.B) {
	e := workloadEngine(4, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := flow.MakeAddr(10, 99, byte(i>>8), byte(i))
		dst := flow.MakeAddr(172, 99, byte(i>>8), byte(i))
		label := flow.PairLabel(src, dst)
		if err := e.Install(label, 0, time.Hour); err == nil {
			e.Remove(label)
		}
	}
}

// BenchmarkDataplaneInstall prices the control plane's install path on
// the fwd_attack table (60k pairs + 4k source /24s, 2 shards). One op
// is one Install of a new label, so ns/op, B/op and allocs/op are per
// install, directory resizes amortized in; a fresh engine is built
// (off the clock) each time the table is full.
func BenchmarkDataplaneInstall(b *testing.B) {
	labels := fwdAttackLabels()
	fresh := func() *Engine {
		return New(Config{Shards: 2, FilterCapacity: len(labels), Evict: filter.RejectNew, Clock: steadyClock{}})
	}
	e := fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(labels) == 0 {
			b.StopTimer()
			e = fresh()
			b.StartTimer()
		}
		if err := e.Install(labels[i%len(labels)], 0, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}
