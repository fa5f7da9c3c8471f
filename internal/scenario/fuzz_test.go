package scenario

import (
	"testing"
	"time"
)

// fuzzSpec maps raw fuzz input onto a small, always-runnable scenario
// shape: the fuzzer controls the seed (and thus topology, roles and
// schedules) plus the army composition and feature flags directly.
func fuzzSpec(seed int64, ases, army, flags uint8) Spec {
	s := Spec{
		Seed:          seed,
		ASes:          2 + int(ases%8),
		Tier1:         1 + int(ases>>4)%3,
		MaxHostsPerAS: 1 + int(army>>6),
		DeployPct:     int(flags>>1) * 2,
		Victims:       1,
		Legit:         int(army % 4),
		Steady:        int(army % 3),
		Pulsers:       int(army>>2) % 2,
		Spoofers:      int(army>>4) % 2,
		ReqFlooders:   int(army>>5) % 2,
		Exhausters:    int(flags >> 7),
		NonCoop:       int(flags % 3),
		AttackRate:    80_000,
		LegitRate:     6_000,
		AttackDur:     2*time.Second + time.Duration(flags%3)*time.Second,

		IngressFiltering: flags&8 != 0,
		GatewayAuto:      flags&16 != 0,
		// flags&32 is unused (it was batch delivery); the other bits keep
		// their meaning so the checked-in corpus does too.
		Shards:          1 + int(flags%4),
		Detector:        int(ases>>6) % 3,
		CollateralAlloc: ases&8 != 0,
	}
	if flags&64 != 0 {
		s.Overload = true
		s.AttackRate = 480_000
	}
	// The seed's high byte drives the hostile-network layer, so the
	// existing 4-arg corpus keeps working and the fuzzer can reach
	// every fault combination by mutating the seed alone.
	fb := uint8(uint64(seed) >> 56)
	s.Faults = FaultSpec{
		CtrlLossPct:   float64(fb & 7),
		Flaps:         int(fb>>3) & 3,
		CrashVictimGW: fb&32 != 0,
		Retransmit:    fb&64 != 0,
	}
	// Seed high-byte bit 7 arms the gateway-cluster layer; its shape
	// rides on bits the other fields already consume (independence is
	// not needed for coverage, only reachability).
	if fb&128 != 0 {
		s.Cluster = ClusterSpec{
			Replicas:    2 + int(ases%2),
			MergeMs:     250 + 250*int(flags%2),
			Replicate:   army&2 == 0,
			KillReplica: army&1 == 0,
		}
	}
	return s // Run normalizes the rest (Drain, clamps)
}

// FuzzScenario treats the fuzz input as a scenario seed and shape and
// requires every protocol invariant to hold. Run with
//
//	go test -fuzz=FuzzScenario -fuzztime=30s ./internal/scenario
//
// A crasher's input reduces to a Spec that cmd/aitf-scenario can
// replay and minimize (print it with t.Log below, or re-derive it via
// fuzzSpec from the corpus entry).
func FuzzScenario(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0b0110_0110), uint8(0))
	f.Add(int64(42), uint8(250), uint8(0b1011_0101), uint8(0b0111_1111))
	f.Add(int64(-7), uint8(3), uint8(1), uint8(64))
	f.Add(int64(1<<40), uint8(0), uint8(0), uint8(255))
	// Filter-table exhauster armies (flags bit 7) with and without a
	// mixed background army.
	f.Add(int64(11), uint8(6), uint8(0b0001_0110), uint8(0b1000_0000))
	f.Add(int64(23), uint8(9), uint8(0), uint8(0b1010_1001))
	// Sketch-detector scenarios (ases bit 6) and gateway-side
	// detection defending legacy victims (ases bit 7).
	f.Add(int64(31), uint8(0b0100_0110), uint8(0b0110_0110), uint8(0))
	f.Add(int64(37), uint8(0b1000_0101), uint8(0b0001_0111), uint8(0b1010_0001))
	// Collateral-aware allocation (ases bit 3), with and without the
	// exhauster pressure (flags bit 7) that makes it engage.
	f.Add(int64(51), uint8(0b0000_1110), uint8(0b0001_0110), uint8(0b1000_0000))
	f.Add(int64(59), uint8(0b0100_1101), uint8(0b0110_0011), uint8(0b1010_0001))
	// Hostile-network entries (seed high byte = fault bits): control
	// loss with retransmission, a victim-gateway crash mid-attack, and
	// the full stack — loss + flaps + crash — at once.
	f.Add(int64(0b0100_0011)<<56|67, uint8(6), uint8(0b0110_0110), uint8(0))
	f.Add(int64(0b0010_0000)<<56|71, uint8(9), uint8(0b0001_0111), uint8(0b0010_1001))
	f.Add(int64(0b0110_1101)<<56|79, uint8(5), uint8(0b1011_0101), uint8(0b0000_0001))
	// Gateway-cluster entries (seed high-byte bit 7): a replicated
	// cluster with a replica kill under gateway-side detection, the
	// cluster riding the full hostile-network stack at once, and the
	// independent-gateways contrast (replication off) with a kill.
	f.Add(int64(-1<<63|89), uint8(0b1000_0110), uint8(0b0110_0100), uint8(0))
	f.Add(int64(-1<<63|0b0110_1101<<56|97), uint8(5), uint8(0b1011_0001), uint8(0b0000_0001))
	f.Add(int64(-1<<63|101), uint8(0b1000_0011), uint8(0b0000_0110), uint8(0b0000_0010))
	f.Fuzz(func(t *testing.T, seed int64, ases, army, flags uint8) {
		spec := fuzzSpec(seed, ases, army, flags)
		res := Run(spec)
		if res.Failed() {
			t.Fatalf("invariants violated for %+v:\n%s", spec, res.Report())
		}
	})
}
