// Package scenario is the seeded adversarial scenario harness: it
// turns the AITF simulator into a property-testing machine. From a
// single int64 seed it generates a random multi-AS topology
// (topology.Random), a partial AITF deployment, a mixed attacker army
// (internal/attack behavior profiles: steady floods, on-off pulsers,
// source spoofers, filter-request flooders, colluding non-cooperative
// gateways) plus legitimate background traffic, runs the whole thing
// through the generic aitf.DeployTopology entry point on the dataplane
// engine, and checks the protocol's core invariants afterwards:
//
//  1. no legitimate flow is ever named by an installed filter or stop
//     order, and legit flows off the disconnected subtrees stay alive;
//  2. wire-speed filter and shadow-cache budgets are never exceeded;
//  3. escalation always terminates — once the attack stops, rounds
//     quiesce, and no (gateway, flow) pair escalates more than the
//     structural bound allows;
//  4. each undesired flow's bytes at the victim stay within the
//     analytic effective-bandwidth bound r ≈ n(Td+Tr)/T (§IV-A.1),
//     with a modest slack factor.
//
// Every stochastic choice is drawn from rand sources derived from the
// seed, so a failing scenario replays byte-identically (same seed ⇒
// same event trace ⇒ same Fingerprint). The harness is exposed as
// go-test properties (scenario_test.go), a native fuzz target
// (FuzzScenario), and the cmd/aitf-scenario CLI.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"aitf"
	"aitf/internal/alloc"
	"aitf/internal/attack"
	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/core"
	"aitf/internal/ctrl"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// Protocol and network constants shared by every generated scenario.
// They are deliberately compressed relative to the paper's examples
// (T = 1 min there) so that one scenario fits in ~15 s of virtual time
// while keeping the orderings that matter: Ttmp ≪ T, pulser off-period
// > Ttmp, penalty > run length.
const (
	timerT       = 25 * time.Second
	timerTtmp    = 1500 * time.Millisecond
	timerGrace   = 250 * time.Millisecond
	timerPenalty = 2 * time.Minute

	accessDelay   = 20 * time.Millisecond
	backboneDelay = 5 * time.Millisecond
	tailBandwidth = 1.25e6 // the paper's 10 Mbit/s tail circuit

	detectThreshold = 30_000 // bytes/s flagged by the victim's detector
	detectWindow    = 250 * time.Millisecond

	// aggShallowest is the coarsest source prefix any scenario gateway
	// may install under table pressure — the fixed fallback length, and
	// the shallowest rung of the collateral-aware allocator's ladder.
	// Invariant 2's collateral budget is derived from it.
	aggShallowest = 24

	// attackWindowStart is when the first attacker may begin.
	attackWindowStart = 1 * time.Second
	// settleTime bounds how long after the attack stops escalation
	// activity may continue (one in-flight round plus slack).
	settleTime = timerTtmp + 2*time.Second

	// Reliable-control parameters for Faults.Retransmit scenarios: four
	// attempts at RTO 120 ms with exponential backoff (±25% jitter)
	// finish the whole ladder in ≈ 840 ms, inside the 1 s handshake
	// timeout, so a retransmitted verification still lands in its
	// window.
	ctrlAttempts = 4
	ctrlRTO      = 120 * time.Millisecond
	ctrlJitter   = 0.25

	// crashDowntime is how long a crashed victim gateway stays dark
	// before it restores from its snapshot; flapDowntime is one link
	// flap's dark period.
	crashDowntime = 300 * time.Millisecond
	flapDowntime  = 150 * time.Millisecond
)

// Detector kinds selectable per scenario (Spec.Detector). Oracle is
// the paper's assumption — an exact per-source rate classifier whose
// latency is essentially its window. Sketch replaces it with the real
// streaming measurement engine (internal/detect) on each victim host,
// making detection latency, FPs and FNs emergent. Gateway moves that
// engine onto the victims' gateways, modelling victims as legacy
// non-AITF hosts that are defended on their behalf — the deployment
// scenario where detection, filtering, and the §II-E handshake all
// live at the border router.
const (
	DetectorOracle = iota
	DetectorSketch
	DetectorGateway
)

// FaultSpec describes the hostile-network conditions a scenario runs
// under. The zero value is fault-free: no fault randomness is drawn and
// the run replays byte-identically to pre-fault builds.
type FaultSpec struct {
	// CtrlLossPct is seeded random loss, in percent (0–20), applied to
	// control packets on every backbone (border↔border) link — the
	// paper's hard case of signaling squeezed by the congestion it is
	// trying to relieve. Data packets are never loss-dropped, so
	// data-plane accounting stays exact.
	CtrlLossPct float64 `json:"ctrl_loss_pct"`
	// Flaps schedules this many down/up flaps (each flapDowntime long)
	// of the first victim's uplink during the attack window.
	Flaps int `json:"flaps"`
	// CrashVictimGW crashes the first victim's serving gateway
	// mid-attack (queued packets lost, volatile state gone) and
	// restores it from its pre-crash snapshot crashDowntime later.
	CrashVictimGW bool `json:"crash_victim_gw"`
	// Retransmit arms the reliable control messenger on every gateway:
	// bounded retransmission with exponential backoff around protocol
	// sends. Off, lost control messages are recovered only by the
	// victim's re-requests, as in the base protocol.
	Retransmit bool `json:"retransmit"`
}

// Enabled reports whether any fault is configured.
func (f FaultSpec) Enabled() bool {
	return f.CtrlLossPct > 0 || f.Flaps > 0 || f.CrashVictimGW
}

// ClusterSpec configures the gateway-cluster layer: every deployed
// gateway runs as Replicas sketch-merging logical replicas with a
// replicated filter log (internal/cluster). The zero value keeps
// classic single-replica gateways and draws no cluster randomness.
type ClusterSpec struct {
	// Replicas is the logical replica count per gateway (< 2 disables).
	Replicas int `json:"replicas"`
	// MergeMs is the merge-round interval in milliseconds; it is never
	// allowed below the detection window (the merged lower bound needs
	// at least one full window between exchanges).
	MergeMs int `json:"merge_ms"`
	// Replicate arms the replicated filter log; off, each replica keeps
	// only its own filters — the independent-gateways contrast that
	// loses them on a crash.
	Replicate bool `json:"replicate"`
	// KillReplica kills one logical replica of the first victim's
	// serving gateway mid-attack (replica-death chaos): its flows
	// reassign to the survivors and, with Replicate on, every one of
	// its filters must already be held by them.
	KillReplica bool `json:"kill_replica"`
}

// Enabled reports whether the spec describes a real cluster.
func (c ClusterSpec) Enabled() bool { return c.Replicas >= 2 }

// Spec is a fully deterministic scenario description. GenSpec derives
// one from a seed; the CLI can also replay or minimize an explicit
// spec. Run(s) is a pure function of the Spec value.
type Spec struct {
	Seed          int64 `json:"seed"`
	ASes          int   `json:"ases"`
	Tier1         int   `json:"tier1"`
	MaxHostsPerAS int   `json:"max_hosts_per_as"`
	// DeployPct is the percentage of non-tier-1 ASes running AITF.
	DeployPct int `json:"deploy_pct"`

	Victims     int `json:"victims"`
	Legit       int `json:"legit"`
	Steady      int `json:"steady"`
	Pulsers     int `json:"pulsers"`
	Spoofers    int `json:"spoofers"`
	ReqFlooders int `json:"req_flooders"`
	// Exhausters are filter-table exhaustion adversaries: spoofed /24
	// sibling sprays that force the victim gateway to aggregate.
	Exhausters int `json:"exhausters"`
	// NonCoop is how many attackers get a colluding (non-cooperative)
	// gateway on their path.
	NonCoop int `json:"non_coop"`

	AttackRate float64       `json:"attack_rate"` // bytes/s per attacker
	LegitRate  float64       `json:"legit_rate"`  // bytes/s per legit sender
	AttackDur  time.Duration `json:"attack_dur"`
	Drain      time.Duration `json:"drain"`

	IngressFiltering bool `json:"ingress_filtering"`
	GatewayAuto      bool `json:"gateway_auto"`
	Shards           int  `json:"shards"`
	// Detector selects the detection machinery: DetectorOracle (exact
	// per-source rate oracle on victim hosts), DetectorSketch
	// (internal/detect sketch engine on victim hosts), or
	// DetectorGateway (sketch engine on the victims' gateways; victims
	// are legacy hosts with no detector of their own).
	Detector int `json:"detector"`
	// Overload deliberately exceeds the victim's tail circuit; the
	// bandwidth-bound and liveness checks are skipped (congestion
	// losses are not protocol failures), the others still apply.
	Overload bool `json:"overload"`
	// CollateralAlloc widens the allocator's policy from the one-rung
	// /24 fallback to the /28–/24 ladder: under table pressure the
	// gateway prices candidate prefixes at every rung by estimated
	// collateral and picks the cheapest cover. All invariants —
	// including the invariant-2 collateral budget — must hold either
	// way.
	CollateralAlloc bool `json:"collateral_alloc"`
	// Faults configures the hostile-network conditions (control-plane
	// loss, link flaps, a victim-gateway crash/restore) the scenario
	// must survive. Zero value = pristine network.
	Faults FaultSpec `json:"faults"`
	// Cluster runs every deployed gateway as a cluster of
	// sketch-merging logical replicas (invariant 7 applies). Zero
	// value = single-replica gateways.
	Cluster ClusterSpec `json:"cluster"`
}

// GenSpec derives a scenario shape from a seed. Sizes are tuned so a
// single scenario runs in well under a second of wall time while still
// covering tens of ASes and a mixed army.
func GenSpec(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	s := Spec{
		Seed:          seed,
		ASes:          6 + rng.Intn(9),
		Tier1:         2 + rng.Intn(2),
		MaxHostsPerAS: 2 + rng.Intn(2),
		DeployPct:     50 + rng.Intn(51),
		Victims:       1 + rng.Intn(2),
		Legit:         3 + rng.Intn(3),
		Steady:        1 + rng.Intn(2),
		Pulsers:       rng.Intn(3),
		Spoofers:      rng.Intn(2),
		ReqFlooders:   rng.Intn(2),
		Exhausters:    rng.Intn(2),
		NonCoop:       rng.Intn(3),
		AttackRate:    60_000 + 60_000*rng.Float64(),
		LegitRate:     4_000 + 5_000*rng.Float64(),
		AttackDur:     4*time.Second + time.Duration(rng.Int63n(int64(3*time.Second))),
		Drain:         6 * time.Second,

		IngressFiltering: rng.Float64() < 0.4,
		GatewayAuto:      rng.Float64() < 0.25,
	}
	// The draw of the removed batch-delivery switch, discarded so every
	// later field of every seed keeps its value.
	rng.Float64()
	s.Shards = 1 << rng.Intn(3)
	// 40% oracle, 40% host-side sketch, 20% gateway-side sketch.
	s.Detector = []int{DetectorOracle, DetectorOracle, DetectorSketch,
		DetectorSketch, DetectorGateway}[rng.Intn(5)]
	if rng.Float64() < 0.12 {
		s.Overload = true
		s.AttackRate *= 6
	}
	// Drawn last so older seeds keep their exact shapes otherwise.
	s.CollateralAlloc = rng.Float64() < 0.35
	// Faults drawn after everything above for the same reason: every
	// pre-fault field of a given seed keeps its exact value.
	if rng.Float64() < 0.30 {
		s.Faults.CtrlLossPct = 1 + 4*rng.Float64()
		s.Faults.Retransmit = true
	}
	if rng.Float64() < 0.15 {
		s.Faults.Flaps = 1 + rng.Intn(2)
	}
	if rng.Float64() < 0.20 {
		s.Faults.CrashVictimGW = true
	}
	// Cluster layer drawn after the faults, again so every pre-cluster
	// field of a given seed keeps its exact value.
	if rng.Float64() < 0.25 {
		s.Cluster.Replicas = 2 + rng.Intn(2)
		s.Cluster.MergeMs = []int{250, 500}[rng.Intn(2)]
		s.Cluster.Replicate = rng.Float64() < 0.8
		s.Cluster.KillReplica = rng.Float64() < 0.5
	}
	return s
}

// name is a compact subtest/display label.
func (s Spec) name() string { return fmt.Sprintf("seed%d", s.Seed) }

// normalized clamps a spec to runnable ranges (hand-written or
// fuzz-mutated specs may carry anything).
func (s Spec) normalized() Spec {
	clamp := func(v *int, lo, hi int) {
		if *v < lo {
			*v = lo
		}
		if *v > hi {
			*v = hi
		}
	}
	clamp(&s.ASes, 2, 200)
	clamp(&s.Tier1, 1, s.ASes)
	clamp(&s.MaxHostsPerAS, 1, 16)
	clamp(&s.DeployPct, 0, 100)
	clamp(&s.Victims, 1, 8)
	clamp(&s.Legit, 0, 32)
	clamp(&s.Steady, 0, 16)
	clamp(&s.Pulsers, 0, 16)
	clamp(&s.Spoofers, 0, 8)
	clamp(&s.ReqFlooders, 0, 8)
	clamp(&s.Exhausters, 0, 8)
	clamp(&s.NonCoop, 0, 16)
	clamp(&s.Shards, 1, 8)
	clamp(&s.Detector, DetectorOracle, DetectorGateway)
	if s.AttackRate < 2.2*detectThreshold {
		s.AttackRate = 2.2 * detectThreshold
	}
	if s.AttackRate > 8e5 {
		s.AttackRate = 8e5
	}
	if s.LegitRate < 1000 {
		s.LegitRate = 1000
	}
	if s.LegitRate > 0.5*detectThreshold {
		s.LegitRate = 0.5 * detectThreshold
	}
	if s.AttackDur < 2*time.Second {
		s.AttackDur = 2 * time.Second
	}
	if s.AttackDur > 20*time.Second {
		s.AttackDur = 20 * time.Second
	}
	if s.Drain < settleTime+2*time.Second {
		s.Drain = settleTime + 2*time.Second
	}
	if s.Faults.CtrlLossPct < 0 {
		s.Faults.CtrlLossPct = 0
	}
	if s.Faults.CtrlLossPct > 20 {
		s.Faults.CtrlLossPct = 20
	}
	clamp(&s.Faults.Flaps, 0, 4)
	clamp(&s.Cluster.Replicas, 0, 4)
	if s.Cluster.Enabled() {
		// The merge interval is never shorter than the detection window:
		// the windowed lower bound composes only across full windows.
		clamp(&s.Cluster.MergeMs, int(detectWindow/time.Millisecond), 2000)
	}
	return s
}

// role locates one host in the generated world.
type role struct {
	as   int
	node topology.NodeID
	addr flow.Addr
}

// attackerRole is one misbehaving host plus its assigned profile.
type attackerRole struct {
	role
	behavior  attack.Behavior
	victim    role
	rate      float64
	on, off   time.Duration
	spoofSrc  flow.Addr
	spoofN    int
	dwell     time.Duration
	compliant bool
	launched  attack.Launched
}

// legitRole is one background sender.
type legitRole struct {
	role
	victim role
	flood  *attack.Flood
}

// world is the fully built scenario, kept for invariant checking.
type world struct {
	spec     Spec
	dep      *aitf.Deployment
	topo     *topology.Topology
	nodes    topology.RandomNodes
	deployed []bool
	nonCoop  map[int]bool

	victims   []role
	attackers []attackerRole
	flooders  []attackerRole
	legit     []legitRole

	attackStop, runEnd sim.Time
}

// Violation is one invariant breach.
type Violation struct {
	Invariant string `json:"invariant"`
	Node      string `json:"node"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Node, v.Detail)
}

// Result summarises one scenario run.
type Result struct {
	Spec Spec `json:"spec"`

	// Realized sizes (role assignment is capped by the host supply).
	Hosts       int `json:"hosts"`
	Gateways    int `json:"gateways"`
	NonCoopGWs  int `json:"non_coop_gws"`
	Victims     int `json:"victims"`
	Attackers   int `json:"attackers"`
	Legit       int `json:"legit"`
	ReqFlooders int `json:"req_flooders"`

	Events           int    `json:"events"`
	AttackSent       uint64 `json:"attack_sent"`
	AttackSuppressed uint64 `json:"attack_suppressed"`
	VictimBytes      uint64 `json:"victim_bytes"`
	Disconnects      int    `json:"disconnects"`
	Escalations      int    `json:"escalations"`
	Aggregations     int    `json:"aggregations"`
	// Collateral sums the gateways' covered-address aggregation
	// collateral; CollateralBytes their estimated legit-byte collateral
	// (internal/alloc pricing). Both are what the invariant-2 budget
	// bounds and what the fixed-vs-allocator comparison contrasts.
	Collateral      uint64 `json:"collateral"`
	CollateralBytes uint64 `json:"collateral_bytes"`

	// Detection accuracy accounting (invariant 5). Detections counts
	// attack-detected events; FalsePositives counts those naming a
	// protected legit source (each is also a violation);
	// MissedAttackers counts steady attackers whose flood crossed an
	// AITF gateway yet never triggered detection — accounted, not
	// violated, since the bandwidth bound is what punishes harmful
	// misses.
	Detections      int `json:"detections"`
	FalsePositives  int `json:"false_positives"`
	MissedAttackers int `json:"missed_attackers"`

	// Control-plane reliability accounting (invariant 6). Retransmits
	// and DupDrops sum the gateways' (and hosts') reliable-messenger
	// counters; CtrlLossDrops/DataLossDrops sum the fault-injected
	// per-class link losses across all interfaces; GatewayCrashes
	// counts crash events in the trace.
	CtrlRetransmits uint64 `json:"ctrl_retransmits"`
	CtrlDupDrops    uint64 `json:"ctrl_dup_drops"`
	CtrlLossDrops   uint64 `json:"ctrl_loss_drops"`
	DataLossDrops   uint64 `json:"data_loss_drops"`
	GatewayCrashes  int    `json:"gateway_crashes"`

	// Gateway-cluster accounting (invariant 7), summed over every
	// clustered gateway: merge rounds run and replication bytes
	// exchanged, replica failovers, and the filters the survivors
	// inherited vs lost at each failover. With replication on, lost
	// must be zero. CatchupNanos is deliberately excluded — it is wall
	// clock and would break replay fingerprints.
	ClusterMergeRounds      uint64 `json:"cluster_merge_rounds"`
	ClusterMergeBytes       uint64 `json:"cluster_merge_bytes"`
	ClusterFailovers        uint64 `json:"cluster_failovers"`
	ClusterFiltersInherited uint64 `json:"cluster_filters_inherited"`
	ClusterFiltersLost      uint64 `json:"cluster_filters_lost"`
	ClusterLogLen           int    `json:"cluster_log_len"`

	Violations  []Violation `json:"violations"`
	Fingerprint uint64      `json:"fingerprint"`
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Report renders a one-scenario summary.
func (r *Result) Report() string {
	status := "PASS"
	if r.Failed() {
		status = "FAIL"
	}
	s := fmt.Sprintf(
		"%s seed=%d ases=%d hosts=%d gws=%d(noncoop %d) victims=%d attackers=%d legit=%d reqfl=%d "+
			"events=%d attack=%dB suppressed=%d victim=%dB esc=%d disc=%d det=%d/%d/fp%d fp=%016x",
		status, r.Spec.Seed, r.Spec.ASes, r.Hosts, r.Gateways, r.NonCoopGWs,
		r.Victims, r.Attackers, r.Legit, r.ReqFlooders,
		r.Events, r.AttackSent, r.AttackSuppressed, r.VictimBytes,
		r.Escalations, r.Disconnects, r.Detections, r.MissedAttackers, r.FalsePositives, r.Fingerprint)
	if r.Spec.Faults.Enabled() {
		s += fmt.Sprintf("\n  faults: ctrl-loss=%.1f%% flaps=%d crash=%d retx=%d dup-drops=%d lost-ctrl=%d lost-data=%d",
			r.Spec.Faults.CtrlLossPct, r.Spec.Faults.Flaps, r.GatewayCrashes,
			r.CtrlRetransmits, r.CtrlDupDrops, r.CtrlLossDrops, r.DataLossDrops)
	}
	if r.Spec.Cluster.Enabled() {
		s += fmt.Sprintf("\n  cluster: replicas=%d merges=%d merge-bytes=%d failovers=%d inherited=%d lost=%d log=%d",
			r.Spec.Cluster.Replicas, r.ClusterMergeRounds, r.ClusterMergeBytes,
			r.ClusterFailovers, r.ClusterFiltersInherited, r.ClusterFiltersLost, r.ClusterLogLen)
	}
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	return s
}

// Run generates, deploys, executes, and invariant-checks one scenario.
func Run(spec Spec) *Result {
	w := build(spec.normalized())
	w.dep.Run(w.runEnd)
	return w.check()
}

// build constructs the world for a spec without running it.
func build(s Spec) *world {
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eedfeed))

	topo, nodes := topology.Random(topology.RandomSpec{
		ASes:               s.ASes,
		Tier1:              s.Tier1,
		MaxHostsPerAS:      s.MaxHostsPerAS,
		InternalRouterProb: 0.3,
		Params: topology.Params{
			AccessDelay:   accessDelay,
			BackboneDelay: backboneDelay,
			TailBandwidth: tailBandwidth,
			QueueLen:      64,
		},
	}, rng)

	w := &world{spec: s, topo: topo, nodes: nodes, nonCoop: map[int]bool{}}
	w.deployed = make([]bool, s.ASes)
	for i := range w.deployed {
		w.deployed[i] = i < len(nodes.Tier1) || rng.Intn(100) < s.DeployPct
	}

	// ── Role assignment ──────────────────────────────────────────────
	pool := nodes.HostList()
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	take := func(n int) []role {
		if n > len(pool) {
			n = len(pool)
		}
		out := make([]role, 0, n)
		for _, id := range pool[:n] {
			out = append(out, role{as: nodes.ASOfHost(id), node: id, addr: topo.Nodes[id].Addr})
		}
		pool = pool[n:]
		return out
	}

	w.victims = take(s.Victims)
	for _, v := range w.victims {
		w.deployed[v.as] = true // a victim's own gateway must speak AITF
	}
	pickVictim := func() role { return w.victims[rng.Intn(len(w.victims))] }

	mkAttacker := func(r role, b attack.Behavior, i int) attackerRole {
		a := attackerRole{
			role:      r,
			behavior:  b,
			victim:    pickVictim(),
			rate:      s.AttackRate,
			compliant: rng.Float64() < 0.3,
		}
		switch b {
		case attack.Pulse:
			a.on = 300*time.Millisecond + time.Duration(rng.Int63n(int64(400*time.Millisecond)))
			a.off = timerTtmp + 300*time.Millisecond + time.Duration(rng.Int63n(int64(1200*time.Millisecond)))
		case attack.Spoof:
			a.spoofSrc = flow.MakeAddr(240, 0, byte(i), 1)
			a.spoofN = 1 + rng.Intn(2)
		case attack.TableExhauster:
			// A whole /24 sibling range per exhauster, disjoint from the
			// Spoof ranges (240.0/16) and from every real host. The burst
			// rate is doubled (capped below the tail circuit) and the
			// dwell chosen so each sibling's burst crosses the victim's
			// detector (≥ 2·2.2·threshold ⇒ ≥ ~12 kB per 90 ms, over the
			// 7.5 kB window threshold) while ~Ttmp/dwell ≈ 16 sibling
			// filters overlap — comfortably past the tight table budget.
			a.spoofSrc = flow.MakeAddr(240, 100+byte(i), 0, 1)
			a.spoofN = 24 + rng.Intn(41)
			a.dwell = 90 * time.Millisecond
			a.rate = 2 * s.AttackRate
			if a.rate > 5e5 {
				a.rate = 5e5
			}
		}
		return a
	}
	for i, r := range take(s.Steady) {
		w.attackers = append(w.attackers, mkAttacker(r, attack.Steady, i))
	}
	for i, r := range take(s.Pulsers) {
		w.attackers = append(w.attackers, mkAttacker(r, attack.Pulse, i))
	}
	for i, r := range take(s.Spoofers) {
		w.attackers = append(w.attackers, mkAttacker(r, attack.Spoof, i))
	}
	for i, r := range take(s.Exhausters) {
		w.attackers = append(w.attackers, mkAttacker(r, attack.TableExhauster, i))
	}
	for i, r := range take(s.ReqFlooders) {
		fl := mkAttacker(r, attack.RequestFlooder, i)
		fl.rate = 30 + 40*rng.Float64() // requests/s, well over R1
		w.flooders = append(w.flooders, fl)
	}
	for _, r := range take(s.Legit) {
		w.legit = append(w.legit, legitRole{role: r, victim: pickVictim()})
	}

	// Colluding gateways: the first NonCoop attackers get their nearest
	// deployed non-tier-1 gateway marked non-cooperative.
	marked := 0
	for _, a := range w.attackers {
		if marked >= s.NonCoop {
			break
		}
		for as := a.as; as >= 0; as = nodes.Parent[as] {
			if w.deployed[as] && nodes.Parent[as] >= 0 { // deployed, not tier-1
				if !w.nonCoop[as] {
					w.nonCoop[as] = true
					marked++
				}
				break
			}
		}
	}

	// ── Deployment wiring ────────────────────────────────────────────
	// With exhausters in the army, the victims' gateways get a tight
	// wire-speed budget: enough for the precise filters the rest of the
	// army needs plus a small margin, so the exhauster's sibling spray
	// is what overflows it and forces aggregation — while the
	// aggregation retry keeps the precise filters installable.
	tightCap := 0
	if s.Exhausters > 0 {
		tightCap = 8 + s.Steady + s.Pulsers + 2*s.Spoofers
	}
	victimAS := map[int]bool{}
	for _, v := range w.victims {
		victimAS[v.as] = true
	}
	// With gateway-side detection, every victim's serving gateway (its
	// own AS's border — victim ASes always deploy) defends it.
	detectFor := map[int][]topology.NodeID{}
	if s.Detector == DetectorGateway {
		for _, v := range w.victims {
			detectFor[v.as] = append(detectFor[v.as], v.node)
		}
	}
	spec := aitf.TopologySpec{Topo: topo}
	for as := 0; as < s.ASes; as++ {
		if !w.deployed[as] {
			continue
		}
		gs := aitf.GatewaySpec{
			Node:           nodes.Border[as],
			Provider:       aitf.NoProvider,
			NonCooperative: w.nonCoop[as],
		}
		if tightCap > 0 && victimAS[as] {
			gs.FilterCapacity = tightCap
		}
		gs.DetectFor = detectFor[as]
		for p := nodes.Parent[as]; p >= 0; p = nodes.Parent[p] {
			if w.deployed[p] {
				gs.Provider = nodes.Border[p]
				break
			}
		}
		if nodes.Parent[as] < 0 { // tier-1: peer with the rest of the clique
			for _, t1 := range nodes.Tier1 {
				if t1 != as {
					gs.Peers = append(gs.Peers, nodes.Border[t1])
				}
			}
		}
		if nodes.Internal[as] >= 0 {
			gs.Clients = append(gs.Clients, nodes.Internal[as])
		} else {
			gs.Clients = append(gs.Clients, nodes.Hosts[as]...)
			if s.IngressFiltering {
				gs.IngressHosts = append(gs.IngressHosts, nodes.Hosts[as]...)
			}
		}
		for child := as + 1; child < s.ASes; child++ {
			if nodes.Parent[child] == as {
				gs.Clients = append(gs.Clients, nodes.Border[child])
			}
		}
		spec.Gateways = append(spec.Gateways, gs)
	}

	servingGW := func(as int) topology.NodeID {
		for ; as >= 0; as = nodes.Parent[as] {
			if w.deployed[as] {
				return nodes.Border[as]
			}
		}
		panic("scenario: no deployed gateway on provider chain")
	}
	nonCompliant := map[topology.NodeID]bool{}
	victimNode := map[topology.NodeID]bool{}
	for _, a := range w.attackers {
		nonCompliant[a.node] = !a.compliant
	}
	for _, v := range w.victims {
		victimNode[v.node] = true
	}
	for as := 0; as < s.ASes; as++ {
		for _, h := range nodes.Hosts[as] {
			spec.Hosts = append(spec.Hosts, aitf.HostSpec{
				Node:    h,
				Gateway: servingGW(as),
				// Gateway-detection scenarios model victims as legacy
				// hosts: no detector, no requests of their own.
				Victim:       victimNode[h] && s.Detector != DetectorGateway,
				NonCompliant: nonCompliant[h],
			})
		}
	}

	opt := aitf.DefaultOptions()
	opt.Seed = s.Seed
	opt.Timers = contract.Timers{T: timerT, Ttmp: timerTtmp, Grace: timerGrace, Penalty: timerPenalty}
	switch s.Detector {
	case DetectorSketch:
		// Each victim host gets its own engine with a distinct,
		// seed-derived hash layout (hosts are created in deterministic
		// spec order, so the counter replays identically).
		hostSeed := uint64(s.Seed) * 0x9e3779b97f4a7c15
		n := uint64(0)
		opt.Detector = func() core.Detector {
			n++
			return detect.NewHostDetector(detect.Config{
				ThresholdBps: detectThreshold,
				Window:       detectWindow,
				Seed:         hostSeed + n*0xff51afd7ed558ccd,
			})
		}
	case DetectorGateway:
		opt.Detector = nil // victims are legacy hosts
		opt.GatewayDetect = detect.Config{
			ThresholdBps: detectThreshold,
			Window:       detectWindow,
			Seed:         uint64(s.Seed),
		}
	default:
		opt.Detector = func() core.Detector {
			return attack.NewRateDetector(detectThreshold, detectWindow)
		}
	}
	opt.ShadowMode = aitf.VictimDriven
	if s.GatewayAuto {
		opt.ShadowMode = aitf.GatewayAuto
	}
	opt.DataplaneShards = s.Shards
	opt.HandshakeTimeout = time.Second
	opt.CollectTrace = true
	// Aggregation is always armed: it only engages under filter-table
	// pressure (which the exhauster army reliably creates), and the
	// invariants below must hold with aggregated prefix filters exactly
	// as they do with precise ones. The default is the one-rung /24
	// policy; CollateralAlloc adds deeper rungs above the same
	// shallowest one, so the invariant-2 budget bound applies
	// identically.
	opt.Allocation = &alloc.Policy{PrefixLens: []uint8{aggShallowest}}
	if s.CollateralAlloc {
		opt.Allocation.PrefixLens = []uint8{28, 26, aggShallowest}
	}
	if s.Faults.Retransmit {
		opt.Control = ctrl.Config{MaxAttempts: ctrlAttempts, RTO: ctrlRTO, Jitter: ctrlJitter}
	}
	if s.Cluster.Enabled() {
		opt.Cluster = cluster.Config{
			Replicas:   s.Cluster.Replicas,
			MergeEvery: sim.Time(s.Cluster.MergeMs) * sim.Time(time.Millisecond),
			HashSeed:   uint64(s.Seed),
			Replicate:  s.Cluster.Replicate,
		}
	}
	w.dep = aitf.DeployTopology(opt, spec)

	// ── Fault schedule ───────────────────────────────────────────────
	// Applied only when configured: a fault-free spec never touches the
	// fault machinery, so its run is byte-identical to pre-fault builds.
	if s.Faults.Enabled() {
		w.dep.Net.SeedFaults(s.Seed ^ 0xfa017)
		if s.Faults.CtrlLossPct > 0 {
			p := s.Faults.CtrlLossPct / 100
			for _, l := range topo.Links {
				a, b := topo.Nodes[l.A], topo.Nodes[l.B]
				if a.Kind == topology.KindBorderRouter && b.Kind == topology.KindBorderRouter {
					w.dep.Net.SetLinkLoss(a.Addr, b.Addr, p, 0)
				}
			}
		}
		if s.Faults.Flaps > 0 {
			// Flap the first victim's uplink (border → provider border)
			// at evenly spaced points inside the attack window. FlapLink
			// no-ops when the victim's AS is tier-1 (no uplink).
			vAS := w.victims[0].as
			if p := nodes.Parent[vAS]; p >= 0 {
				va := topo.Nodes[nodes.Border[vAS]].Addr
				pa := topo.Nodes[nodes.Border[p]].Addr
				step := (time.Second + s.AttackDur) / time.Duration(s.Faults.Flaps+1)
				for i := 1; i <= s.Faults.Flaps; i++ {
					downAt := sim.Time(attackWindowStart) + sim.Time(step)*sim.Time(i)
					w.dep.Net.FlapLink(va, pa, downAt, downAt+sim.Time(flapDowntime))
				}
			}
		}
		if s.Faults.CrashVictimGW {
			// Crash the first victim's serving gateway mid-attack; its
			// durable state (filter table, shadow cache, in-flight
			// handshakes with their original deadlines) restores from the
			// pre-crash snapshot crashDowntime later.
			gw := servingGW(w.victims[0].as)
			crashAt := sim.Time(attackWindowStart+time.Second) + sim.Time(s.AttackDur/2)
			eng := w.dep.Engine
			eng.ScheduleAt(crashAt, func() {
				snap := w.dep.CrashGateway(gw)
				eng.ScheduleAt(crashAt+sim.Time(crashDowntime), func() {
					w.dep.RestoreGateway(gw, snap)
				})
			})
		}
	}

	// ── Replica-death chaos ──────────────────────────────────────────
	// Kill one seed-chosen logical replica of the first victim's
	// serving gateway mid-attack (offset from the whole-gateway crash
	// instant so the two fault kinds compose without colliding). The
	// gateway is fetched at fire time: a crash/restore may have
	// replaced the object by then.
	if s.Cluster.Enabled() && s.Cluster.KillReplica {
		gw := servingGW(w.victims[0].as)
		replica := int(uint64(s.Seed) % uint64(s.Cluster.Replicas))
		killAt := sim.Time(attackWindowStart+time.Second) + sim.Time(s.AttackDur/3)
		w.dep.Engine.ScheduleAt(killAt, func() {
			if g := w.dep.Gateways[gw]; g != nil {
				g.KillReplica(replica)
			}
		})
	}

	// ── Workloads ────────────────────────────────────────────────────
	w.attackStop = sim.Time(attackWindowStart + time.Second + s.AttackDur)
	w.runEnd = w.attackStop + sim.Time(s.Drain)
	wrng := rand.New(rand.NewSource(s.Seed ^ 0x70ffee))

	for i := range w.attackers {
		a := &w.attackers[i]
		start := sim.Time(attackWindowStart) + sim.Time(wrng.Int63n(int64(time.Second)))
		a.launched = attack.Profile{
			Behavior: a.behavior,
			From:     w.dep.Host(a.node),
			Target:   a.victim.addr,
			Rate:     a.rate,
			Start:    start,
			Stop:     w.attackStop,
			On:       sim.Time(a.on),
			Off:      sim.Time(a.off),
			SpoofSrc: a.spoofSrc, SpoofPerPacket: a.spoofN,
			SpoofDwell: sim.Time(a.dwell),
			Jitter:     0.2,
		}.Launch(wrng)
	}
	for i := range w.flooders {
		f := &w.flooders[i]
		start := sim.Time(attackWindowStart) + sim.Time(wrng.Int63n(int64(time.Second)))
		gwNode := servingGW(f.as)
		f.launched = attack.Profile{
			Behavior: attack.RequestFlooder,
			From:     w.dep.Host(f.node),
			Gateway:  w.topo.Nodes[gwNode].Addr,
			Rate:     f.rate,
			Start:    start,
			Stop:     w.attackStop,
		}.Launch(wrng)
	}
	for i := range w.legit {
		l := &w.legit[i]
		l.flood = &attack.Flood{
			From:       w.dep.Host(l.node),
			Dst:        l.victim.addr,
			Rate:       w.spec.LegitRate,
			PacketSize: 1000,
			SrcPort:    uint16(2000 + i),
			DstPort:    80,
			Start:      sim.Time(wrng.Int63n(int64(time.Second))),
			Jitter:     0.3,
			Rng:        wrng,
		}
		l.flood.Launch()
	}
	return w
}
