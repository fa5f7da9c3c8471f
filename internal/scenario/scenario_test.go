package scenario

import (
	"testing"
	"time"

	"aitf"
	"aitf/internal/flow"
	"aitf/internal/sim"
)

// propertySeeds is how many random scenarios the property and chaos
// suites run. The acceptance bar for the harness is ≥ 50 seeds under
// -race; the simulator's speed is spent on three times that.
const propertySeeds = 150

// TestScenarioProperties generates and runs propertySeeds independent
// random scenarios and requires all four protocol invariants to hold
// in each.
func TestScenarioProperties(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		seed := seed
		t.Run(GenSpec(seed).name(), func(t *testing.T) {
			t.Parallel()
			res := Run(GenSpec(seed))
			if res.Failed() {
				t.Fatalf("invariants violated:\n%s", res.Report())
			}
			if res.AttackSent == 0 && res.Spec.Steady+res.Spec.Pulsers+res.Spec.Spoofers > 0 {
				t.Fatalf("no attack traffic entered the network:\n%s", res.Report())
			}
			if res.Events == 0 {
				t.Fatal("empty protocol trace — scenario did not exercise AITF")
			}
		})
	}
}

// TestScenarioDeterminism: the same seed replays byte-identically — the
// fingerprint covers the entire event trace and every counter.
func TestScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 17, 41} {
		a := Run(GenSpec(seed))
		b := Run(GenSpec(seed))
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("seed %d: fingerprints differ: %016x vs %016x\n%s\n%s",
				seed, a.Fingerprint, b.Fingerprint, a.Report(), b.Report())
		}
		if a.Events != b.Events || a.VictimBytes != b.VictimBytes || a.AttackSent != b.AttackSent {
			t.Fatalf("seed %d: summaries differ:\n%s\n%s", seed, a.Report(), b.Report())
		}
	}
	// Different seeds must not (in practice) collide.
	if Run(GenSpec(5)).Fingerprint == Run(GenSpec(6)).Fingerprint {
		t.Fatal("distinct seeds produced identical fingerprints")
	}
}

// TestScenarioExhausterForcesAggregation: filter-table exhausters —
// spoofed /24-sibling bursts against a victim gateway with a tight
// wire-speed budget — must actually drive the gateway into the §IV
// aggregation fallback, and every protocol invariant (legit flows never
// filtered, budgets, escalation termination, the r-bound) must hold
// with the aggregated prefix filters in play exactly as without them.
func TestScenarioExhausterForcesAggregation(t *testing.T) {
	aggregated := 0
	for seed := int64(1); seed <= 12; seed++ {
		s := GenSpec(seed)
		s.Exhausters = 1
		s.AttackDur = 5 * time.Second
		res := Run(s)
		if res.Failed() {
			t.Fatalf("seed %d: invariants violated with exhauster army:\n%s", seed, res.Report())
		}
		if res.Aggregations > 0 {
			aggregated++
		}
	}
	// Not every topology routes the spray through a pressured gateway
	// (ingress filtering, undeployed ASes), but across a dozen seeds
	// the exhauster must demonstrably force aggregation most of the
	// time — otherwise it is not exhausting anything.
	if aggregated < 6 {
		t.Fatalf("aggregation engaged in only %d/12 exhauster scenarios", aggregated)
	}
}

// TestScenarioAllocatorReducesCollateral is the same-seed
// fixed-vs-allocator contrast at scenario scale: each exhauster
// scenario runs twice, once with the fixed /24 fallback and once with
// the collateral-aware allocator, on an otherwise identical spec. Both
// must satisfy every invariant; across the seeds where both engaged
// aggregation, the allocator must accrue strictly less covered-address
// collateral in total, because it covers the spoofed sibling bursts
// with /28–/26 picks instead of blanket /24s.
func TestScenarioAllocatorReducesCollateral(t *testing.T) {
	var fixedColl, allocColl uint64
	both := 0
	for seed := int64(1); seed <= 12; seed++ {
		s := GenSpec(seed)
		s.Exhausters = 1
		s.AttackDur = 5 * time.Second
		s.CollateralAlloc = false
		rf := Run(s)
		if rf.Failed() {
			t.Fatalf("seed %d fixed: invariants violated:\n%s", seed, rf.Report())
		}
		s.CollateralAlloc = true
		ra := Run(s)
		if ra.Failed() {
			t.Fatalf("seed %d allocator: invariants violated:\n%s", seed, ra.Report())
		}
		if rf.Aggregations > 0 && ra.Aggregations > 0 {
			both++
			fixedColl += rf.Collateral
			allocColl += ra.Collateral
		}
	}
	if both < 4 {
		t.Fatalf("both policies aggregated in only %d/12 exhauster scenarios", both)
	}
	if allocColl >= fixedColl {
		t.Fatalf("allocator covered-address collateral %d not below fixed %d across %d seeds",
			allocColl, fixedColl, both)
	}
}

// TestScenarioAggregateReliefSplits: the full aggregate → relief →
// split-back cycle occurs under the scenario generator too, not only in
// hand-built deployments — the drain window outlives the exhauster
// burst, so pressured gateways must demonstrably deaggregate (and the
// invariants, including the final filter-table sweep of invariant 1,
// hold through the cycle).
func TestScenarioAggregateReliefSplits(t *testing.T) {
	splits := 0
	for seed := int64(1); seed <= 12; seed++ {
		s := GenSpec(seed)
		s.Exhausters = 1
		s.AttackDur = 5 * time.Second
		w := build(s.normalized())
		w.dep.Run(w.runEnd)
		res := w.check()
		if res.Failed() {
			t.Fatalf("seed %d: invariants violated:\n%s", seed, res.Report())
		}
		if res.Aggregations > 0 && w.dep.Log.Count(aitf.EvDeaggregated) > 0 {
			splits++
		}
	}
	if splits < 3 {
		t.Fatalf("aggregate→relief→split cycle completed in only %d/12 exhauster scenarios", splits)
	}
}

// TestScenarioExercisesAdversaries: across the property seeds, every
// adversary class and resolution path actually occurs somewhere —
// guarding against a generator that silently stops producing attacks.
func TestScenarioExercisesAdversaries(t *testing.T) {
	var sawEsc, sawDisc, sawNonCoop, sawSuppressed bool
	for seed := int64(1); seed <= 25; seed++ {
		res := Run(GenSpec(seed))
		if res.Failed() {
			t.Fatalf("seed %d:\n%s", seed, res.Report())
		}
		sawEsc = sawEsc || res.Escalations > 0
		sawDisc = sawDisc || res.Disconnects > 0
		sawNonCoop = sawNonCoop || res.NonCoopGWs > 0
		sawSuppressed = sawSuppressed || res.AttackSuppressed > 0
	}
	if !sawEsc {
		t.Error("no scenario escalated")
	}
	if !sawDisc {
		t.Error("no scenario disconnected a non-cooperator")
	}
	if !sawNonCoop {
		t.Error("no scenario deployed a colluding gateway")
	}
	if !sawSuppressed {
		t.Error("no compliant attacker ever honoured a stop order")
	}
}

// TestScenarioSketchDetectorProperties is the property suite with the
// oracle swapped out wholesale: every one of the 50 seeds runs with
// the real sketch-based detection engine on its victim hosts, and all
// protocol invariants — including the new false-positive bound
// (invariant 5) — must hold with detection latency now emergent
// rather than assumed.
func TestScenarioSketchDetectorProperties(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		seed := seed
		s := GenSpec(seed)
		s.Detector = DetectorSketch
		t.Run(s.name(), func(t *testing.T) {
			t.Parallel()
			res := Run(s)
			if res.Failed() {
				t.Fatalf("invariants violated under sketch detection:\n%s", res.Report())
			}
			if res.FalsePositives != 0 {
				t.Fatalf("sketch detector framed %d legit flows:\n%s", res.FalsePositives, res.Report())
			}
		})
	}
}

// TestScenarioGatewayDetectorProperties forces gateway-side detection
// (victims as legacy hosts, their gateways detecting on their behalf)
// across 25 seeds: all invariants hold, and the gateways demonstrably
// do the detecting — attack-detected events exist while the legacy
// victims file zero requests themselves.
func TestScenarioGatewayDetectorProperties(t *testing.T) {
	detectedSomewhere := 0
	for seed := int64(1); seed <= 25; seed++ {
		s := GenSpec(seed)
		s.Detector = DetectorGateway
		res := Run(s)
		if res.Failed() {
			t.Fatalf("seed %d: invariants violated under gateway detection:\n%s", seed, res.Report())
		}
		if res.Detections > 0 {
			detectedSomewhere++
		}
	}
	if detectedSomewhere < 15 {
		t.Fatalf("gateways detected attacks in only %d/25 scenarios", detectedSomewhere)
	}
}

// TestScenarioSketchDeterministic: the sketch engines are seeded, so a
// sketch-detected scenario replays to the identical fingerprint.
func TestScenarioSketchDeterministic(t *testing.T) {
	for _, kind := range []int{DetectorSketch, DetectorGateway} {
		for _, seed := range []int64{9, 27} {
			s := GenSpec(seed)
			s.Detector = kind
			a, b := Run(s), Run(s)
			if a.Fingerprint != b.Fingerprint {
				t.Fatalf("detector %d seed %d: fingerprints differ: %016x vs %016x",
					kind, seed, a.Fingerprint, b.Fingerprint)
			}
		}
	}
}

// TestScenarioSketchEmergentTd pins the acceptance criterion: with the
// sketch detector, detection latency Td is an emergent, non-zero
// output, and the paper's r ≈ n(Td+Tr)/T effective-bandwidth bound
// still holds when evaluated with the *measured* Td instead of an
// assumed one.
func TestScenarioSketchEmergentTd(t *testing.T) {
	s := GenSpec(4)
	s.Detector = DetectorSketch
	s.Steady, s.Pulsers, s.Spoofers, s.ReqFlooders, s.Exhausters = 1, 0, 0, 0, 0
	s.Overload = false
	w := build(s.normalized())
	w.dep.Run(w.runEnd)
	res := w.check()
	if res.Failed() {
		t.Fatalf("invariants violated:\n%s", res.Report())
	}
	if len(w.attackers) != 1 {
		t.Fatalf("expected one steady attacker, got %d", len(w.attackers))
	}
	a := w.attackers[0]
	if !w.pathCrossesGateway(a.node, a.victim.node) {
		t.Skip("attacker and victim share a LAN in this seed; pick another")
	}

	// Measured Td: first detection of the attack flow minus its start.
	label := flow.PairLabel(a.addr, a.victim.addr).Key()
	var detAt sim.Time
	for _, e := range w.dep.Log.OfKind(aitf.EvAttackDetected) {
		if e.Flow.Key() == label {
			detAt = e.T
			break
		}
	}
	if detAt == 0 {
		t.Fatalf("steady attacker never detected:\n%s", res.Report())
	}
	td := detAt - a.launched.Profile.Start
	if td <= 0 {
		t.Fatalf("emergent Td = %v, want > 0 (detection cannot be instantaneous)", td)
	}
	if td > sim.Time(700*time.Millisecond) {
		t.Fatalf("emergent Td = %v, far beyond a window + crossing time", td)
	}

	// The r-bound, evaluated with the measured Td: the victim's bytes
	// from this flow stay within n leaks of (Td+Tr)-worth of traffic.
	n := 1
	for _, as := range w.nodes.ASPath(a.as, a.victim.as) {
		if w.deployed[as] && w.nonCoop[as] {
			n++
		}
	}
	m := w.dep.Host(a.victim.node).PerSource[a.addr]
	if m == nil {
		t.Fatal("attack flow never reached the victim at all")
	}
	const slack, leakWin, floorB = 2.0, 0.30, 20_000
	allowed := slack*a.rate*(td.Seconds()+float64(n+1)*leakWin) + floorB
	if float64(m.Bytes) > allowed {
		t.Fatalf("measured Td=%v: flow delivered %d B, bound with measured Td allows %.0f B",
			td, m.Bytes, allowed)
	}
	t.Logf("emergent Td = %v, delivered %d B, bound %.0f B", td, m.Bytes, allowed)
}
