package detect

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aitf/internal/sim"
)

// BenchmarkObserve measures the batch observation path across sketch
// geometries and attacker counts. TestObserveZeroAlloc probes the same
// cells for steady-state allocations.
func BenchmarkObserve(b *testing.B) {
	const batchSize = 64
	for _, geom := range []struct{ width, depth int }{{1024, 2}, {1024, 4}, {4096, 4}} {
		for _, attackers := range []int{4, 64, 1024} {
			b.Run(fmt.Sprintf("w%d_d%d_att%d", geom.width, geom.depth, attackers), func(b *testing.B) {
				e := workloadEngine(geom.width, geom.depth, 128)
				rng := rand.New(rand.NewSource(1))
				batch := workloadBatch(rng, attackers, batchSize)
				out := make([]Detection, 0, batchSize)
				now := sim.Time(0)
				for i := 0; i < 100; i++ { // warm every slab
					now += 500 * time.Microsecond
					out = e.Observe(now, batch, out[:0])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now += 500 * time.Microsecond
					out = e.Observe(now, batch, out[:0])
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)*batchSize/b.Elapsed().Seconds(), "pps")
			})
		}
	}
}
