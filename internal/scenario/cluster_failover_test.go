package scenario

import (
	"testing"
	"time"

	"aitf"
)

// clusterSpec is a property-seed scenario with the gateway-cluster
// layer forced on in its hardest shape: gateway-side detection (the
// cluster's sharded engines do the detecting), three replicas,
// replication armed, and one replica killed mid-attack. The attack
// window is stretched so the kill lands while filters are live.
func clusterSpec(seed int64) Spec {
	s := GenSpec(seed)
	s.Detector = DetectorGateway
	s.Cluster = ClusterSpec{
		Replicas:    3,
		MergeMs:     250,
		Replicate:   true,
		KillReplica: true,
	}
	if s.AttackDur < 5*time.Second {
		s.AttackDur = 5 * time.Second
	}
	return s
}

// failoverSeeds is how many seeded kills the failover suite runs.
const failoverSeeds = 90

// TestScenarioClusterFailover is the acceptance suite for the cluster
// layer: across the seeds a replica of the first victim's serving
// gateway is killed mid-attack, and every invariant — including the
// replication-consistency invariant 7 — must hold, with zero filters
// lost to the failover.
func TestScenarioClusterFailover(t *testing.T) {
	for seed := int64(1); seed <= failoverSeeds; seed++ {
		seed := seed
		s := clusterSpec(seed)
		t.Run(s.name(), func(t *testing.T) {
			t.Parallel()
			res := Run(s)
			if res.Failed() {
				t.Fatalf("invariants violated under cluster failover:\n%s", res.Report())
			}
			if res.ClusterFailovers == 0 {
				t.Fatalf("no replica was ever killed:\n%s", res.Report())
			}
			if res.ClusterFiltersLost != 0 {
				t.Fatalf("replicated failover lost %d filters:\n%s", res.ClusterFiltersLost, res.Report())
			}
			if res.ClusterMergeRounds == 0 {
				t.Fatalf("no merge round ever ran:\n%s", res.Report())
			}
		})
	}
}

// TestScenarioClusterFailoverDeterminism: the cluster layer —
// rendezvous assignment, merge rounds, the replica kill, catch-up —
// is seeded virtual-time machinery, so a failover run replays to the
// identical fingerprint (CatchupNanos, the one wall-clock counter, is
// excluded from the fingerprint by construction).
func TestScenarioClusterFailoverDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 17, 41} {
		s := clusterSpec(seed)
		a, b := Run(s), Run(s)
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("seed %d: cluster fingerprints differ: %016x vs %016x\n%s\n%s",
				seed, a.Fingerprint, b.Fingerprint, a.Report(), b.Report())
		}
	}
}

// TestScenarioClusterEngages pins that the machinery demonstrably
// works across the suite, not merely that nothing broke: replicas are
// killed and survivors inherit filters somewhere, merge rounds
// exchange nonzero replication traffic, the replicated log grows, and
// the cluster-detected attacks still get acted on.
func TestScenarioClusterEngages(t *testing.T) {
	var inherited, mergeBytes, logged, acted, killed int
	for seed := int64(1); seed <= 25; seed++ {
		s := clusterSpec(seed)
		w := build(s.normalized())
		w.dep.Run(w.runEnd)
		res := w.check()
		if res.Failed() {
			t.Fatalf("seed %d:\n%s", seed, res.Report())
		}
		if res.ClusterFiltersInherited > 0 {
			inherited++
		}
		if res.ClusterMergeBytes > 0 {
			mergeBytes++
		}
		if res.ClusterLogLen > 0 {
			logged++
		}
		if res.ClusterFailovers > 0 {
			killed++
		}
		if res.AttackSuppressed > 0 || res.Escalations > 0 ||
			w.dep.Log.Count(aitf.EvTempFilterInstalled) > 0 ||
			w.dep.Log.Count(aitf.EvFilterInstalled) > 0 {
			acted++
		}
	}
	if killed < 25 {
		t.Errorf("a replica was killed in only %d/25 cluster runs", killed)
	}
	if inherited < 10 {
		t.Errorf("survivors inherited filters in only %d/25 cluster runs", inherited)
	}
	// A quiet engine's sketch exchange is free (MergeSize counts only
	// live state), so seeds whose armed gateways see little victim-bound
	// traffic legitimately exchange zero bytes.
	if mergeBytes < 15 {
		t.Errorf("merge rounds exchanged bytes in only %d/25 cluster runs", mergeBytes)
	}
	if logged < 20 {
		t.Errorf("the replicated log stayed empty in %d/25 cluster runs", 25-logged)
	}
	if acted < 20 {
		t.Errorf("the protocol acted on the attack in only %d/25 cluster runs", acted)
	}
}

// TestScenarioClusterIndependentLoses is the contrast that justifies
// replication: the same seeds with Replicate off (independent
// replicas) must still satisfy invariants 1–6 — losing filters is a
// robustness gap, not a protocol violation — and must demonstrably
// lose filters at failover somewhere across the suite, which the
// replicated runs above never do.
func TestScenarioClusterIndependentLoses(t *testing.T) {
	lost := 0
	for seed := int64(1); seed <= 25; seed++ {
		s := clusterSpec(seed)
		s.Cluster.Replicate = false
		res := Run(s)
		if res.Failed() {
			t.Fatalf("seed %d:\n%s", seed, res.Report())
		}
		if res.ClusterFiltersLost > 0 {
			lost++
		}
	}
	if lost < 5 {
		t.Errorf("independent replicas lost filters at failover in only %d/25 runs", lost)
	}
}
