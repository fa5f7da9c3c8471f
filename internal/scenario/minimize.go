package scenario

import "time"

// Minimize shrinks a failing spec while the predicate keeps reporting
// failure, and returns the smallest still-failing spec found. The
// predicate is typically `func(s Spec) bool { return Run(s).Failed() }`;
// tests inject synthetic predicates. Shrinking is deterministic: each
// pass tries a fixed candidate list and greedily adopts the first
// candidate that still fails, until a fixed point.
func Minimize(spec Spec, failing func(Spec) bool) Spec {
	cur := spec.normalized()
	if !failing(cur) {
		return cur
	}
	for pass := 0; pass < 64; pass++ {
		improved := false
		for _, cand := range shrinkCandidates(cur) {
			cand = cand.normalized()
			if cand == cur {
				continue
			}
			if failing(cand) {
				cur = cand
				improved = true
				break
			}
		}
		if !improved {
			return cur
		}
	}
	return cur
}

// shrinkCandidates lists one-step reductions of a spec, most aggressive
// first so the greedy loop converges quickly.
func shrinkCandidates(s Spec) []Spec {
	var out []Spec
	add := func(mut func(*Spec)) {
		c := s
		mut(&c)
		out = append(out, c)
	}
	add(func(c *Spec) { c.ASes /= 2 })
	add(func(c *Spec) { c.ASes-- })
	add(func(c *Spec) { c.MaxHostsPerAS = 1 })
	add(func(c *Spec) { c.Victims = 1 })
	add(func(c *Spec) { c.Legit /= 2 })
	add(func(c *Spec) { c.Legit = 0 })
	add(func(c *Spec) { c.Steady /= 2 })
	add(func(c *Spec) { c.Pulsers = 0 })
	add(func(c *Spec) { c.Pulsers /= 2 })
	add(func(c *Spec) { c.Spoofers = 0 })
	add(func(c *Spec) { c.ReqFlooders = 0 })
	add(func(c *Spec) { c.NonCoop = 0 })
	add(func(c *Spec) { c.Overload = false })
	// Fault reductions: drop the whole hostile-network layer first,
	// then each fault dimension separately, so a crasher that does not
	// need faults minimizes to a pristine-network spec.
	add(func(c *Spec) { c.Faults = FaultSpec{} })
	add(func(c *Spec) { c.Faults.CtrlLossPct = 0 })
	add(func(c *Spec) { c.Faults.Flaps = 0 })
	add(func(c *Spec) { c.Faults.CrashVictimGW = false })
	add(func(c *Spec) { c.Faults.Retransmit = false })
	// Cluster reductions — only when the layer is on, so shrinking never
	// grows a cluster into a cluster-free spec: drop it whole, then the
	// replica kill, then down to the minimal two replicas.
	if s.Cluster.Enabled() {
		add(func(c *Spec) { c.Cluster = ClusterSpec{} })
		add(func(c *Spec) { c.Cluster.KillReplica = false })
		add(func(c *Spec) { c.Cluster.Replicas = 2 })
	}
	add(func(c *Spec) { c.IngressFiltering = false })
	add(func(c *Spec) { c.GatewayAuto = false })
	add(func(c *Spec) { c.Detector = DetectorOracle })
	add(func(c *Spec) { c.Shards = 1 })
	add(func(c *Spec) { c.DeployPct = 100 })
	add(func(c *Spec) { c.AttackDur /= 2 })
	add(func(c *Spec) { c.AttackDur = 2 * time.Second })
	return out
}
