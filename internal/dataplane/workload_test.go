package dataplane

import (
	"math/rand"
	"time"

	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/packet"
)

// This file defines the throughput workload shared by the
// BenchmarkDataplane* families and the steady-state zero-alloc gate,
// so the gate probes exactly the cells the benchmarks report.

// steadyClock is a constant clock: workload measurements isolate
// classification cost, not time arithmetic.
type steadyClock struct{}

// Now implements Clock.
func (steadyClock) Now() filter.Time { return time.Second }

// workloadHitPair is the i-th installed (and thus hit) flow pair.
func workloadHitPair(i int) (flow.Addr, flow.Addr) {
	return flow.MakeAddr(10, byte(i>>16), byte(i>>8), byte(i)),
		flow.MakeAddr(172, 16, byte(i>>8), byte(i))
}

// workloadEngine builds an engine preloaded with n pair filters over
// the canonical workload population, with a little capacity slack so
// installs never reject.
func workloadEngine(shards, filters int) *Engine {
	e := New(Config{
		Shards:         shards,
		FilterCapacity: filters + 16,
		ShadowCapacity: 1024,
		ShadowLookup:   true,
		Clock:          steadyClock{},
	})
	for i := 0; i < filters; i++ {
		src, dst := workloadHitPair(i)
		if err := e.Install(flow.PairLabel(src, dst), 0, time.Hour); err != nil {
			panic(err)
		}
	}
	return e
}

// workloadMixes are the pair workload's traffic mixes, each the
// fraction of a batch that hits an installed filter.
var workloadMixes = []struct {
	name string
	frac float64
}{{"hit", 1}, {"miss", 0}, {"mixed", 0.5}}

// workloadBatch builds a classification batch drawing hitFrac of its
// packets from the installed filter population and the rest from a
// disjoint (always-miss) address range.
func workloadBatch(rng *rand.Rand, filters, size int, hitFrac float64) []*packet.Packet {
	batch := make([]*packet.Packet, size)
	for j := range batch {
		if rng.Float64() < hitFrac {
			src, dst := workloadHitPair(rng.Intn(filters))
			batch[j] = packet.NewData(src, dst, flow.ProtoUDP, 1000, 80, 512)
		} else {
			i := rng.Intn(1 << 16)
			batch[j] = packet.NewData(
				flow.MakeAddr(192, 168, byte(i>>8), byte(i)),
				flow.MakeAddr(203, 0, byte(i>>8), byte(i)),
				flow.ProtoUDP, 1000, 80, 512)
		}
	}
	return batch
}

// workloadPrefixLabel is the i-th source-prefix filter: a /24 in 240/8
// toward a per-i destination, so the population stays distinct out to
// millions of entries (the 2^16 /24s of 240/8 times 256 destinations).
func workloadPrefixLabel(i int) (src flow.Addr, dst flow.Addr) {
	return flow.MakeAddr(240, byte(i>>8), byte(i), 0), flow.MakeAddr(203, 99, byte(i>>16), 1)
}

// workloadWildDst is the destination named by the i-th dst-anchored
// wildcard filter (distinct across 8 × 2^16 entries).
func workloadWildDst(i int) flow.Addr {
	return flow.MakeAddr(198, 48+byte(i>>16)&7, byte(i>>8), byte(i))
}

// wildcardWorkloadLabels returns the nonExact coarse labels the
// wildcard workload installs, split evenly between source-/24 prefixes
// (prefix-directory shapes) and dst-anchored wildcards (destination-directory
// shapes). The scan-list baseline runs the same population through a
// naive matcher.
func wildcardWorkloadLabels(nonExact int) []flow.Label {
	out := make([]flow.Label, 0, nonExact)
	for i := 0; i < nonExact; i++ {
		if i%2 == 0 {
			src, dst := workloadPrefixLabel(i / 2)
			out = append(out, flow.SrcPrefixLabel(src, 24, dst))
		} else {
			out = append(out, flow.ToDestination(workloadWildDst(i/2)))
		}
	}
	return out
}

// wildcardWorkloadEngine builds an engine preloaded with exact pair
// filters plus the wildcardWorkloadLabels coarse population — the §IV
// fallback shapes whose match cost the indexed path must keep
// independent of nonExact.
func wildcardWorkloadEngine(shards, pairs, nonExact int) *Engine {
	e := New(Config{
		Shards:         shards,
		FilterCapacity: pairs + nonExact + 16,
		ShadowCapacity: 1024,
		ShadowLookup:   true,
		Clock:          steadyClock{},
	})
	for i := 0; i < pairs; i++ {
		src, dst := workloadHitPair(i)
		if err := e.Install(flow.PairLabel(src, dst), 0, time.Hour); err != nil {
			panic(err)
		}
	}
	for _, label := range wildcardWorkloadLabels(nonExact) {
		if err := e.Install(label, 0, time.Hour); err != nil {
			panic(err)
		}
	}
	return e
}

// wildcardWorkloadBatch builds a batch in which wildFrac of the packets
// hit the coarse (prefix/wildcard) filter population, and the rest
// split between exact-pair hits and misses as workloadBatch does.
func wildcardWorkloadBatch(rng *rand.Rand, pairs, nonExact, size int, wildFrac float64) []*packet.Packet {
	batch := make([]*packet.Packet, size)
	for j := range batch {
		if nonExact > 0 && rng.Float64() < wildFrac {
			i := rng.Intn(nonExact)
			if i%2 == 0 {
				src, dst := workloadPrefixLabel(i / 2)
				src += flow.Addr(rng.Intn(256)) // any sibling inside the /24
				batch[j] = packet.NewData(src, dst, flow.ProtoUDP, 1000, 80, 512)
			} else {
				src := flow.MakeAddr(192, 0, 2, byte(rng.Intn(256)))
				batch[j] = packet.NewData(src, workloadWildDst(i/2), flow.ProtoUDP, 1000, 80, 512)
			}
			continue
		}
		if pairs > 0 && rng.Float64() < 0.5 {
			src, dst := workloadHitPair(rng.Intn(pairs))
			batch[j] = packet.NewData(src, dst, flow.ProtoUDP, 1000, 80, 512)
		} else {
			i := rng.Intn(1 << 16)
			batch[j] = packet.NewData(
				flow.MakeAddr(192, 168, byte(i>>8), byte(i)),
				flow.MakeAddr(203, 0, byte(i>>8), byte(i)),
				flow.ProtoUDP, 1000, 80, 512)
		}
	}
	return batch
}

// fwdAttackLabels is the filter table of the benchmark's fwd_attack
// workload in shape: 60k canonical pair filters from distinct sources
// toward 16 destinations plus 4k source-/24 aggregates, in a fixed
// shuffled order. The install benchmark and the heap-per-filter gate
// use it, so both price the table an attacked gateway actually holds.
func fwdAttackLabels() []flow.Label {
	const pairs, prefixes, dsts = 60_000, 4_000, 16
	out := make([]flow.Label, 0, pairs+prefixes)
	for i := 0; i < pairs; i++ {
		src := flow.MakeAddr(30, byte(i>>12), byte(i>>4), byte(i<<4|1))
		out = append(out, flow.PairLabel(src, flow.MakeAddr(10, 1, 0, byte(i%dsts+1))))
	}
	for i := 0; i < prefixes; i++ {
		net24 := flow.MakeAddr(40, byte(i>>8), byte(i), 0)
		out = append(out, flow.SrcPrefixLabel(net24, 24, flow.MakeAddr(10, 1, 0, byte(i%dsts+1))))
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
