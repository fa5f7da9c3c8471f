package scenario

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"aitf"
	"aitf/internal/attack"
	"aitf/internal/contract"
	"aitf/internal/flow"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// check runs every invariant over the finished world and assembles the
// Result.
func (w *world) check() *Result {
	r := &Result{
		Spec:        w.spec,
		Hosts:       len(w.dep.Hosts),
		Gateways:    len(w.dep.Gateways),
		NonCoopGWs:  len(w.nonCoop),
		Victims:     len(w.victims),
		Attackers:   len(w.attackers),
		Legit:       len(w.legit),
		ReqFlooders: len(w.flooders),
		Events:      w.dep.Log.Len(),
	}
	for _, a := range w.attackers {
		if a.launched.Flood != nil {
			r.AttackSent += a.launched.Flood.Sent * uint64(a.launched.Flood.PacketSize)
			r.AttackSuppressed += a.launched.Flood.Suppressed
		}
	}
	for _, v := range w.victims {
		r.VictimBytes += w.dep.Host(v.node).Meter.Bytes
	}
	r.Disconnects = w.dep.Log.Count(aitf.EvDisconnected)
	r.Escalations = w.dep.Log.Count(aitf.EvEscalated)
	r.Aggregations = w.dep.Log.Count(aitf.EvAggregated)
	for _, g := range w.dep.Gateways {
		st := g.Stats()
		r.Collateral += st.AggregateCollateral
		r.CollateralBytes += st.AggregateCollateralBytes
	}

	w.checkLegitNeverFiltered(r)
	w.checkBudgets(r)
	w.checkEscalationTerminates(r)
	w.checkBandwidthBound(r)
	w.checkDetectionAccuracy(r)
	w.checkControlReliability(r)
	w.checkReplicationConsistency(r)
	r.Fingerprint = w.fingerprint()
	return r
}

func (w *world) violate(r *Result, invariant, node, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Invariant: invariant,
		Node:      node,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// ── Invariant 1: no legitimate flow is permanently filtered ──────────

// protectedSrcs returns every source address that must never be named
// by a filter or stop order: all real hosts except the data-plane
// attackers (spoofed sources live in 240/8 and are not protected).
func (w *world) protectedSrcs() map[flow.Addr]bool {
	out := map[flow.Addr]bool{}
	for _, hs := range w.nodes.Hosts {
		for _, h := range hs {
			out[w.topo.Nodes[h].Addr] = true
		}
	}
	for _, a := range w.attackers {
		delete(out, a.addr)
	}
	return out
}

func (w *world) checkLegitNeverFiltered(r *Result) {
	protected := w.protectedSrcs()
	// Sorted view for deterministic prefix-coverage reporting.
	sortedProtected := make([]flow.Addr, 0, len(protected))
	for a := range protected {
		sortedProtected = append(sortedProtected, a)
	}
	sort.Slice(sortedProtected, func(i, j int) bool { return sortedProtected[i] < sortedProtected[j] })
	// covered reports the first protected source a label's source field
	// covers. Concrete host sources use the map; prefix sources (the
	// aggregates installed under table pressure) must not blanket any
	// protected address either — coarser filters may trade table slots
	// for collateral only across the attacker's spoofed range, never
	// across real hosts. Labels that wildcard the source entirely are
	// dst-scoped and exempt, as before.
	covered := func(l flow.Label) (flow.Addr, bool) {
		if l.Wildcards&flow.WildSrc != 0 {
			return 0, false
		}
		if l.SrcPrefixLen == 0 {
			if protected[l.Src] {
				return l.Src, true
			}
			return 0, false
		}
		for _, a := range sortedProtected {
			if l.CoversSrc(a) {
				return a, true
			}
		}
		return 0, false
	}
	filterish := map[aitf.EventKind]bool{
		aitf.EvTempFilterInstalled: true,
		aitf.EvFilterInstalled:     true,
		aitf.EvShadowLogged:        true,
		aitf.EvLongBlock:           true,
		aitf.EvStopOrder:           true,
		aitf.EvAggregated:          true,
	}
	for e := range w.dep.Log.All() {
		if !filterish[e.Kind] {
			continue
		}
		if src, bad := covered(e.Flow); bad {
			w.violate(r, "legit-filtered", e.Node,
				"%s names protected source %v (flow %s at %v)", e.Kind, src, e.Flow, e.At)
		}
	}
	// Nothing protected may be left in any filter table either.
	for id, g := range w.dep.Gateways {
		for _, fe := range g.Filters().Entries() {
			if src, bad := covered(fe.Label); bad {
				w.violate(r, "legit-filtered", w.topo.Nodes[id].Name,
					"final filter table holds protected source %v (%s)", src, fe.Label)
			}
		}
	}
	// Legit and victim hosts must never have been ordered to stop.
	for _, l := range w.legit {
		if st := w.dep.Host(l.node).Stats(); st.StopOrders > 0 || st.StoppedSends > 0 {
			w.violate(r, "legit-filtered", w.topo.Nodes[l.node].Name,
				"legit host got %d stop orders, %d sends suppressed", st.StopOrders, st.StoppedSends)
		}
	}

	// Liveness: legit flows whose path avoids every disconnected link
	// must still be arriving at the end of the run.
	if w.spec.Overload {
		return
	}
	for _, l := range w.legit {
		if w.pathDisconnected(l.node, l.victim.node) {
			continue // protocol-intended collateral (§II-D)
		}
		m := w.dep.Host(l.victim.node).PerSource[l.addr]
		if m == nil {
			w.violate(r, "legit-filtered", w.topo.Nodes[l.node].Name,
				"legit flow to %s never arrived", w.topo.Nodes[l.victim.node].Name)
			continue
		}
		if w.runEnd-m.Last() > sim.Time(2500*time.Millisecond) {
			w.violate(r, "legit-filtered", w.topo.Nodes[l.node].Name,
				"legit flow to %s starved: last packet at %v, run end %v",
				w.topo.Nodes[l.victim.node].Name, m.Last(), w.runEnd)
		}
	}
}

// pathDisconnected walks the routed path from a to b and reports
// whether any hop would be refused by a gateway's active disconnection.
func (w *world) pathDisconnected(a, b topology.NodeID) bool {
	dst := w.topo.Nodes[b].Addr
	cur := w.dep.Net.Node(a)
	for cur.Addr() != dst {
		hop := cur.NextHop(dst)
		if hop == nil {
			return true // unroutable counts as disconnected
		}
		next := hop.Neighbor()
		if g := w.dep.Gateways[next.ID()]; g != nil && g.Disconnected(cur.Addr()) {
			return true
		}
		cur = next
	}
	return false
}

// pathCrossesGateway reports whether the routed path from a to b
// passes through at least one deployed AITF gateway. Flows that never
// touch an AITF node (e.g. attacker and victim on the same internal
// LAN segment) are structurally invisible to the protocol.
func (w *world) pathCrossesGateway(a, b topology.NodeID) bool {
	dst := w.topo.Nodes[b].Addr
	cur := w.dep.Net.Node(a)
	for cur.Addr() != dst {
		hop := cur.NextHop(dst)
		if hop == nil {
			return false
		}
		cur = hop.Neighbor()
		if w.dep.Gateways[cur.ID()] != nil {
			return true
		}
	}
	return false
}

// ── Invariant 2: resource budgets are never exceeded ─────────────────

func (w *world) checkBudgets(r *Result) {
	for id, g := range w.dep.Gateways {
		name := w.topo.Nodes[id].Name
		cfg := g.Config()
		fs := g.Filters().Stats()
		if fs.PeakOccupancy > cfg.FilterCapacity {
			w.violate(r, "budget", name,
				"filter peak %d exceeds wire-speed capacity %d", fs.PeakOccupancy, cfg.FilterCapacity)
		}
		ss := g.Shadows().Stats()
		if ss.PeakSize > cfg.ShadowCapacity {
			w.violate(r, "budget", name,
				"shadow peak %d exceeds cache capacity %d", ss.PeakSize, cfg.ShadowCapacity)
		}
	}
	// Collateral budget: aggregation trades table slots for collateral
	// coverage, but never coarser than the configured policy allows. No
	// installed aggregate may be shallower than the shallowest rung
	// (/24 here, fixed or allocator), so the covered-address collateral
	// a gateway accrues is bounded by its aggregation count times one
	// full /24 — coarser picks would blanket address space the policy
	// never authorised.
	const maxCoverPerAgg = uint64(1) << (32 - aggShallowest)
	for _, e := range w.dep.Log.OfKind(aitf.EvAggregated) {
		if e.Flow.SrcPrefixLen != 0 && e.Flow.SrcPrefixLen < aggShallowest {
			w.violate(r, "budget", e.Node,
				"aggregate %s coarser than the /%d policy floor", e.Flow, aggShallowest)
		}
	}
	for id, g := range w.dep.Gateways {
		st := g.Stats()
		if st.AggregateCollateral > st.Aggregations*maxCoverPerAgg {
			w.violate(r, "budget", w.topo.Nodes[id].Name,
				"covered-address collateral %d exceeds %d aggregations × /%d budget (%d)",
				st.AggregateCollateral, st.Aggregations, aggShallowest,
				st.Aggregations*maxCoverPerAgg)
		}
	}
	// Client-side budget (§IV-D): active stop orders are bounded by
	// na = R2·T plus the policer burst.
	cc := contract.DefaultEndHost()
	na := contract.Provision(cc, contract.Timers{T: timerT}).AttackerGatewayFilters + int(cc.R2Burst)
	for id, h := range w.dep.Hosts {
		if n := h.ActiveStopOrders(); n > na {
			w.violate(r, "budget", w.topo.Nodes[id].Name,
				"host holds %d active stop orders, provisioned for %d", n, na)
		}
	}
}

// ── Invariant 3: escalation always terminates ────────────────────────

func (w *world) checkEscalationTerminates(r *Result) {
	quiesceBy := w.attackStop + sim.Time(settleTime)
	maxPulses := 0
	for _, a := range w.attackers {
		if a.behavior == attack.Pulse {
			p := int(w.spec.AttackDur/(a.on+a.off)) + 2
			if p > maxPulses {
				maxPulses = p
			}
		}
	}
	bound := len(w.dep.Gateways) + 2*maxPulses + int(w.spec.AttackDur/timerTtmp) + 4
	// A hostile network stretches but never breaks termination: lost
	// control messages make rounds repeat per Ttmp re-block cycle, a
	// flap or crash interrupts (and restarts) in-flight rounds, and
	// retransmission ladders add up to one backoff tail of in-flight
	// slack past the attack stop.
	if f := w.spec.Faults; f.Enabled() {
		quiesceBy += sim.Time(2 * time.Second)
		bound += 2 + 2*f.Flaps
		if f.CtrlLossPct > 0 {
			bound += int(w.spec.AttackDur/timerTtmp) + 2
		}
		if f.CrashVictimGW {
			bound += 2
		}
	}

	rounds := map[string]int{}
	for _, e := range w.dep.Log.OfKind(aitf.EvEscalated) {
		if e.At > quiesceBy {
			w.violate(r, "escalation-terminates", e.Node,
				"escalation of %s at %v, after quiesce deadline %v (attack stopped %v)",
				e.Flow, e.At, quiesceBy, w.attackStop)
		}
		key := e.Node + "|" + e.Flow.String()
		rounds[key]++
		if rounds[key] == bound+1 { // report once per (node, flow)
			w.violate(r, "escalation-terminates", e.Node,
				"flow %s escalated more than %d times at one gateway", e.Flow, bound)
		}
	}
}

// ── Invariant 4: effective bandwidth stays within the r-bound ────────

// checkBandwidthBound asserts the paper's §IV-A.1 claim per undesired
// flow: with n non-cooperating AITF nodes on the path, the victim sees
// roughly n leaks of (Td+Tr) worth of traffic, not the raw flood. The
// allowance below is that analytic bound with a slack factor of 2 plus
// a per-round propagation window — loose enough to be robust across
// random topologies, tight enough that an unfiltered flood (rate ×
// duration) blows straight through it.
func (w *world) checkBandwidthBound(r *Result) {
	if w.spec.Overload {
		return
	}
	const (
		slack   = 2.0
		leakWin = 0.30 // per-round re-detect + request travel + in-flight
		floorB  = 20_000
	)
	// Detection latency allowance. The oracle anchors its window at a
	// flow's first packet, so Td ≤ window + crossing time. The sketch
	// engines rotate on epoch-aligned windows, which can add up to one
	// full window of alignment slack; the space-saving lower bound can
	// add one more crossing's worth under churn.
	tdBound := 0.35 // oracle: detector window (0.25 s) + margin
	if w.spec.Detector != DetectorOracle {
		tdBound = 0.70
	}
	// Hostile-network allowance. Control loss does not delay detection
	// (that is data-path, and data packets are never loss-dropped) but
	// it delays the filter round trip: with retransmission the recovery
	// is one or two RTO backoffs per lost leg; without it, recovery
	// rides the victim's Ttmp re-block cycles, so the allowance grows
	// much faster with the loss rate. A flap hides the uplink for its
	// dark period; a crash hides the victim gateway for crashDowntime
	// plus the re-verification round after restore.
	if f := w.spec.Faults; f.CtrlLossPct > 0 {
		if f.Retransmit {
			tdBound += 0.4 + 0.05*f.CtrlLossPct
		} else {
			tdBound += 1.0 + 0.35*f.CtrlLossPct
		}
	}
	tdBound += 0.4 * float64(w.spec.Faults.Flaps)
	if w.spec.Faults.CrashVictimGW {
		tdBound += crashDowntime.Seconds() + 0.5
	}
	for _, a := range w.attackers {
		if a.behavior != attack.Steady && a.behavior != attack.Pulse {
			continue // spoofed labels are checked via budgets instead
		}
		if !w.pathCrossesGateway(a.node, a.victim.node) {
			// No AITF node between attacker and victim (same internal
			// LAN segment): the protocol is structurally blind here and
			// promises nothing (§II-A: filtering lives at border
			// routers).
			continue
		}
		m := w.dep.Host(a.victim.node).PerSource[a.addr]
		var got uint64
		if m != nil {
			got = m.Bytes
		}
		n := 1
		for _, as := range w.nodes.ASPath(a.as, a.victim.as) {
			if w.deployed[as] && w.nonCoop[as] {
				n++
			}
		}
		pulses := 0
		if a.behavior == attack.Pulse {
			pulses = int(w.spec.AttackDur/(a.on+a.off)) + 2
		}
		allowed := slack*a.rate*(tdBound+float64(n+pulses+1)*leakWin) + floorB
		if float64(got) > allowed {
			w.violate(r, "bandwidth-bound", w.topo.Nodes[a.victim.node].Name,
				"flow %v->%v (%s, n=%d, pulses=%d) delivered %d B, analytic bound %.0f B",
				a.addr, a.victim.addr, a.behavior, n, pulses, got, allowed)
		}
	}
}

// ── Invariant 5: detection is sound ──────────────────────────────────

// checkDetectionAccuracy asserts the false-positive bound — a
// legitimate flow held under threshold (legit senders run at ≤ half
// the detection threshold by construction) is never detected as an
// attack, whichever detector kind the scenario runs: the oracle
// measures exactly, and the sketch engine's two-stage decision only
// flags flows whose exact lower bound crossed the threshold. It also
// accounts false negatives: steady attackers that crossed an AITF
// gateway but were never detected.
func (w *world) checkDetectionAccuracy(r *Result) {
	protected := w.protectedSrcs()
	detected := map[flow.Label]bool{}
	for _, e := range w.dep.Log.OfKind(aitf.EvAttackDetected) {
		r.Detections++
		detected[e.Flow.Key()] = true
		if e.Flow.Wildcards&flow.WildSrc == 0 && e.Flow.SrcPrefixLen == 0 && protected[e.Flow.Src] {
			r.FalsePositives++
			w.violate(r, "detector-fp", e.Node,
				"legit source %v (≤ %.0f B/s, threshold %d B/s) detected as attack (flow %s at %v)",
				e.Flow.Src, 0.5*detectThreshold, int(detectThreshold), e.Flow, e.At)
		}
	}
	for _, a := range w.attackers {
		if a.behavior != attack.Steady {
			continue // pulsed/spoofed labels are not guaranteed-detectable
		}
		if !w.pathCrossesGateway(a.node, a.victim.node) {
			continue // structurally invisible to AITF, and to a gateway detector
		}
		if !detected[flow.PairLabel(a.addr, a.victim.addr).Key()] {
			r.MissedAttackers++
		}
	}
}

// ── Invariant 6: control-plane reliability is bounded and balanced ───

// checkControlReliability asserts the reliable-messenger contracts on
// every gateway, fault or no fault: the handshake ledger balances
// (every handshake started is resolved OK, resolved failed, or still
// pending at run end — nothing leaks), retransmission terminates (at
// most MaxAttempts−1 retransmits per reliable send, and no ladder is
// still outstanding after the drain), and scenarios without the
// reliable messenger never retransmit at all. It also gathers the
// fault-accounting totals into the Result.
func (w *world) checkControlReliability(r *Result) {
	for id, g := range w.dep.Gateways {
		name := w.topo.Nodes[id].Name
		st := g.Stats()
		r.CtrlRetransmits += st.CtrlRetransmits
		r.CtrlDupDrops += st.CtrlDupDrops
		if got, want := st.HandshakesStarted, st.HandshakesOK+st.HandshakesFailed+uint64(g.PendingHandshakes()); got != want {
			w.violate(r, "control-reliability", name,
				"handshake ledger out of balance: %d started vs %d ok + %d failed + %d pending",
				st.HandshakesStarted, st.HandshakesOK, st.HandshakesFailed, g.PendingHandshakes())
		}
		if w.spec.Faults.Retransmit {
			if st.CtrlRetransmits > st.CtrlReliableSends*uint64(ctrlAttempts-1) {
				w.violate(r, "control-reliability", name,
					"%d retransmits exceed %d reliable sends × %d max extra attempts",
					st.CtrlRetransmits, st.CtrlReliableSends, ctrlAttempts-1)
			}
		} else if st.CtrlRetransmits != 0 {
			w.violate(r, "control-reliability", name,
				"%d retransmits without the reliable messenger armed", st.CtrlRetransmits)
		}
		if n := g.OutstandingReliable(); n != 0 {
			w.violate(r, "control-reliability", name,
				"%d retransmission ladders still outstanding after the drain", n)
		}
	}
	for _, h := range w.dep.Hosts {
		r.CtrlDupDrops += h.Stats().CtrlDupDrops
	}
	for _, n := range w.topo.Nodes {
		st := w.dep.Net.Node(n.ID).AggStats()
		r.CtrlLossDrops += st.CtrlLossDrops
		r.DataLossDrops += st.DataLossDrops
	}
	r.GatewayCrashes = w.dep.Log.Count(aitf.EvGatewayCrashed)
	if !w.spec.Faults.Enabled() && (r.CtrlLossDrops != 0 || r.DataLossDrops != 0 || r.GatewayCrashes != 0) {
		w.violate(r, "control-reliability", "net",
			"fault-free run recorded %d/%d loss drops and %d crashes",
			r.CtrlLossDrops, r.DataLossDrops, r.GatewayCrashes)
	}
	// Data packets are never loss-dropped by the fault model (control-
	// only loss keeps data accounting exact).
	if r.DataLossDrops != 0 && w.spec.Faults.Flaps == 0 && !w.spec.Faults.CrashVictimGW {
		w.violate(r, "control-reliability", "net",
			"%d data packets loss-dropped under control-only loss", r.DataLossDrops)
	}
}

// ── Invariant 7: replication is consistent ───────────────────────────

// checkReplicationConsistency asserts the gateway-cluster contracts
// after quiesce: one final merge round ships any tail of the
// replicated log, and then every live replica's filter view must agree
// with a replay of that log (cluster.CheckConsistency); with
// replication on, no failover may have lost a filter — the survivors
// already held every one; and no live replica's view may name a
// protected legitimate source it never observed (exact pair labels —
// aggregates are priced by the invariant-2 collateral budget instead).
// Cluster-free runs must show no cluster activity at all.
func (w *world) checkReplicationConsistency(r *Result) {
	if !w.spec.Cluster.Enabled() {
		if n := w.dep.Log.Count(aitf.EvClusterMerge) + w.dep.Log.Count(aitf.EvReplicaKilled); n != 0 {
			w.violate(r, "replication-consistency", "net",
				"cluster-free run recorded %d cluster events", n)
		}
		return
	}
	now := w.dep.Engine.Now()
	protected := w.protectedSrcs()
	for id, g := range w.dep.Gateways {
		clu := g.Cluster()
		if clu == nil {
			continue
		}
		name := w.topo.Nodes[id].Name
		// Final quiesce round: ops recorded after the last scheduled
		// merge have not shipped yet; failover-consistency is judged on
		// the settled log.
		clu.MergeRound(now)
		if msg := clu.CheckConsistency(now); msg != "" {
			w.violate(r, "replication-consistency", name, "%s", msg)
		}
		st := clu.Stats()
		r.ClusterMergeRounds += st.MergeRounds
		r.ClusterMergeBytes += st.MergeBytes
		r.ClusterFailovers += st.Failovers
		r.ClusterFiltersInherited += st.FiltersInherited
		r.ClusterFiltersLost += st.FiltersLost
		r.ClusterLogLen += clu.LogLen()
		if w.spec.Cluster.Replicate && st.FiltersLost > 0 {
			w.violate(r, "replication-consistency", name,
				"replicated failover lost %d filters (inherited %d)",
				st.FiltersLost, st.FiltersInherited)
		}
		for i := 0; i < clu.Replicas(); i++ {
			if !clu.Alive(i) {
				continue
			}
			for lbl, exp := range clu.FilterView(i) {
				if exp <= now {
					continue
				}
				if lbl.Wildcards&flow.WildSrc == 0 && lbl.SrcPrefixLen == 0 && protected[lbl.Src] {
					w.violate(r, "replication-consistency", name,
						"replica %d holds a filter naming protected source %v (%s)", i, lbl.Src, lbl)
				}
			}
		}
	}
}

// ── Fingerprint ──────────────────────────────────────────────────────

// fingerprint hashes the full protocol event trace plus every meter and
// counter, so two runs agree iff they behaved identically.
func (w *world) fingerprint() uint64 {
	h := fnv.New64a()
	add := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
	}
	// One line per event, "T|Node|Kind|Flow|Detail\n" with T and Kind in
	// decimal, rendered into one reused buffer: the trace is most of the
	// hashed bytes, and fmt spent longer on it than the hash did.
	line := make([]byte, 0, 256)
	for e := range w.dep.Log.All() {
		line = strconv.AppendInt(line[:0], int64(e.At), 10)
		line = append(line, '|')
		line = append(line, e.Node...)
		line = append(line, '|')
		line = strconv.AppendUint(line, uint64(e.Kind), 10)
		line = append(line, '|')
		line = e.Flow.AppendTo(line)
		line = append(line, '|')
		line = append(line, e.Detail...)
		line = append(line, '\n')
		h.Write(line)
	}

	hostIDs := make([]int, 0, len(w.dep.Hosts))
	for id := range w.dep.Hosts {
		hostIDs = append(hostIDs, int(id))
	}
	sort.Ints(hostIDs)
	for _, id := range hostIDs {
		host := w.dep.Hosts[topology.NodeID(id)]
		// WantedEvicted is 0 unless the host's wanted table overflowed;
		// a zero is left out, so the rows of runs that never reach
		// endhost.MaxWanted do not depend on the table having a bound.
		st := host.Stats()
		row := fmt.Sprintf("%+v", st)
		if st.WantedEvicted == 0 {
			row = strings.Replace(row, " WantedEvicted:0", "", 1)
		}
		add("h%d:%s:%d:%d\n", id, row, host.Meter.Bytes, host.Meter.Packets)
		// 64-bit, not int: an address above 2^31 wraps negative where int
		// is 32 bits, changing both the order and the rendered digits.
		srcs := make([]uint64, 0, len(host.PerSource))
		for a := range host.PerSource {
			srcs = append(srcs, uint64(a))
		}
		slices.Sort(srcs)
		for _, a := range srcs {
			add("s%d:%d\n", a, host.PerSource[flow.Addr(a)].Bytes)
		}
	}

	gwIDs := make([]int, 0, len(w.dep.Gateways))
	for id := range w.dep.Gateways {
		gwIDs = append(gwIDs, int(id))
	}
	sort.Ints(gwIDs)
	for _, id := range gwIDs {
		g := w.dep.Gateways[topology.NodeID(id)]
		add("g%d:%+v:%+v:%+v\n", id, g.Stats(), g.Filters().Stats(), g.Shadows().Stats())
		if clu := g.Cluster(); clu != nil {
			st := clu.Stats()
			// CatchupNanos is wall clock — it must never enter a replay
			// fingerprint.
			st.CatchupNanos = 0
			add("c%d:%d:%+v\n", id, clu.LogLen(), st)
		}
	}
	return h.Sum64()
}
