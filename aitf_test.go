package aitf

import (
	"testing"
	"time"

	"aitf/internal/attack"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// attackRate saturates the default 10 Mbit/s tail circuit.
const attackRate = 1.25e6

// TestFigure1Cooperative replays the paper's §II-D example with a
// cooperative attacker's gateway: by the end of round one, filtering
// sits at the AITF node closest to the attacker (B_gw1 ≙ a_gw1).
func TestFigure1Cooperative(t *testing.T) {
	dep := DeployFigure1(DefaultOptions())
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.Launch()
	dep.Run(5 * time.Second)

	if dep.Log.Count(EvAttackDetected) == 0 {
		t.Fatal("victim never detected the flood")
	}
	if dep.Log.Count(EvTempFilterInstalled) == 0 {
		t.Fatal("victim's gateway never installed a temporary filter")
	}
	if n := dep.Log.Count(EvHandshakeOK); n == 0 {
		t.Fatal("handshake never completed")
	}
	// The T-filter must land on the attacker's gateway (a_gw1), the
	// closest AITF node to the attacker.
	installed := dep.Log.OfKind(EvFilterInstalled)
	if len(installed) == 0 {
		t.Fatal("no filter installed at the attacker's gateway")
	}
	if installed[0].Node != "a_gw1" {
		t.Fatalf("filter landed on %s, want a_gw1", installed[0].Node)
	}
	// No escalation needed when round one succeeds.
	if n := dep.Log.Count(EvEscalated); n != 0 {
		t.Fatalf("escalations = %d, want 0:\n%s", n, dep.Log)
	}
	// The victim's gateway must conclude the attacker side took over.
	if dep.Log.Count(EvTakeoverOK) == 0 {
		t.Fatalf("takeover never confirmed:\n%s", dep.Log)
	}
	// Non-compliant attacker keeps pushing into a_gw1's filter and is
	// disconnected after the grace period.
	if dep.Log.Count(EvDisconnected) == 0 {
		t.Fatal("non-compliant attacker was not disconnected")
	}
	// Effective bandwidth: the victim saw only the pre-filter leak.
	horizon := dep.Now()
	eff := dep.Victim.Meter.BandwidthOver(horizon)
	if ratio := eff / attackRate; ratio > 0.05 {
		t.Fatalf("victim still receives %.2f%% of the flood", 100*ratio)
	}
}

// TestFigure1CompliantAttacker checks the carrot side: an attacker that
// stops on request is not disconnected.
func TestFigure1CompliantAttacker(t *testing.T) {
	dep := DeployChain(ChainOptions{Options: DefaultOptions(), Depth: 3, AttackerCompliant: true})
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.Launch()
	dep.Run(5 * time.Second)

	if dep.Log.Count(EvStopOrder) == 0 {
		t.Fatal("no stop order reached the attacker")
	}
	if dep.Log.Count(EvDisconnected) != 0 {
		t.Fatalf("compliant attacker was disconnected:\n%s", dep.Log)
	}
	if dep.Log.Count(EvFlowStopped) == 0 {
		t.Fatal("compliance never confirmed")
	}
	if fl.Suppressed == 0 {
		t.Fatal("attacker host never suppressed its own sends")
	}
}

// TestEscalationOneLevel makes a_gw1 non-cooperative: a continuously
// flooding attacker forces escalation to the second round, and the
// T-filter lands on a_gw2.
func TestEscalationOneLevel(t *testing.T) {
	dep := DeployChain(ChainOptions{
		Options:        DefaultOptions(),
		Depth:          3,
		NonCooperative: map[int]bool{0: true},
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.Launch()
	dep.Run(10 * time.Second)

	if dep.Log.Count(EvEscalated) == 0 {
		t.Fatalf("no escalation despite non-cooperative a_gw1:\n%s", dep.Log)
	}
	var onAgw2 bool
	for _, e := range dep.Log.OfKind(EvFilterInstalled) {
		if e.Node == "a_gw2" {
			onAgw2 = true
		}
		if e.Node == "a_gw1" {
			t.Fatal("non-cooperative a_gw1 installed a filter")
		}
	}
	if !onAgw2 {
		t.Fatalf("round 2 filter did not land on a_gw2:\n%s", dep.Log)
	}
	// a_gw2 ordered its client network (a_gw1) to stop; a_gw1 ignores
	// stop orders, keeps forwarding, and gets disconnected by a_gw2.
	if dep.Log.Count(EvDisconnected) == 0 {
		t.Fatalf("a_gw2 never disconnected the misbehaving a_gw1:\n%s", dep.Log)
	}
}

// TestWorstCaseDisconnection makes the whole attacker side
// non-cooperative: the top victim-side gateway must cut the peering
// link (the paper's "G_gw3 disconnects from B_gw3").
func TestWorstCaseDisconnection(t *testing.T) {
	opt := DefaultOptions()
	dep := DeployChain(ChainOptions{
		Options:        opt,
		Depth:          3,
		NonCooperative: map[int]bool{0: true, 1: true, 2: true},
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.Launch()
	dep.Run(15 * time.Second)

	if dep.Log.Count(EvFilterInstalled) != 0 {
		t.Fatalf("a filter was installed on the non-cooperative side:\n%s", dep.Log)
	}
	discs := dep.Log.OfKind(EvDisconnected)
	var top bool
	for _, e := range discs {
		if e.Node == "v_gw3" {
			top = true
		}
	}
	if !top {
		t.Fatalf("v_gw3 never disconnected the peering link:\n%s", dep.Log)
	}
	// After disconnection nothing leaks: measure the tail of the run.
	last := dep.Victim.Meter.Last()
	if dep.Now()-last < 5*time.Second {
		t.Fatalf("victim still receiving at %v (end %v)", last, dep.Now())
	}
}

// TestOnOffAttackerCaught verifies the shadow-cache defence (§II-B):
// a pulsing attacker behind a non-cooperative gateway is re-blocked on
// every reappearance and escalation proceeds.
func TestOnOffAttackerCaught(t *testing.T) {
	opt := DefaultOptions()
	dep := DeployChain(ChainOptions{
		Options:        opt,
		Depth:          3,
		NonCooperative: map[int]bool{0: true},
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.On = 400 * time.Millisecond
	fl.Off = time.Second // longer than Ttmp: temp filter lapses between bursts
	fl.Launch()
	dep.Run(10 * time.Second)

	if dep.Log.Count(EvShadowHit) == 0 {
		t.Fatalf("shadow cache never caught the reappearing flow:\n%s", dep.Log)
	}
	if dep.Log.Count(EvEscalated) == 0 {
		t.Fatal("reappearances never escalated")
	}
	// Eventually a cooperative gateway (a_gw2) holds a T-filter.
	var blocked bool
	for _, e := range dep.Log.OfKind(EvFilterInstalled) {
		if e.Node == "a_gw2" {
			blocked = true
		}
	}
	if !blocked {
		t.Fatalf("on-off flow never pinned at a_gw2:\n%s", dep.Log)
	}
}

// TestShadowOffAblation shows why the DRAM cache matters: without it
// the on-off attacker leaks traffic on every burst, forever.
func TestShadowOffAblation(t *testing.T) {
	run := func(mode ShadowMode) float64 {
		opt := DefaultOptions()
		opt.ShadowMode = mode
		dep := DeployChain(ChainOptions{
			Options:        opt,
			Depth:          3,
			NonCooperative: map[int]bool{0: true},
		})
		fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
		fl.On = 400 * time.Millisecond
		fl.Off = time.Second
		fl.Launch()
		dep.Run(20 * time.Second)
		return float64(dep.Victim.Meter.Bytes)
	}
	with := run(VictimDriven)
	without := run(ShadowOff)
	if without <= with*1.5 {
		t.Fatalf("shadow cache should materially cut leakage: with=%v without=%v", with, without)
	}
}

// TestForgedRequestRejected is the security property (§II-E, §III-B): a
// malicious node cannot use AITF to cut somebody else's legitimate
// flow, because the 3-way handshake dies at the genuine receiver.
func TestForgedRequestRejected(t *testing.T) {
	opt := DefaultOptions()
	opt.Detector = nil // nobody genuinely complains in this scenario
	dep := DeployManyToOne(ManyToOneOptions{Options: opt, Attackers: 1, Legit: 2})

	// legit0 sends a modest flow to the victim.
	legit := dep.Legit[0]
	fl := dep.Flood(legit, dep.Victim, 50_000)
	fl.Launch()

	// The compromised host (attackers[0]) forges a request to legit0's
	// gateway demanding that flow be blocked.
	forger := &attack.Forger{
		Node:     dep.Attackers[0],
		TargetGW: dep.LegitGWs[0].Node().Addr(),
		Flow:     PairLabel(legit.Node().Addr(), dep.Victim.Node().Addr()),
		Victim:   dep.Victim.Node().Addr(),
	}
	forger.FireAt(time.Second)
	// A second forgery with fabricated evidence naming the right
	// gateway but without its secret.
	forger2 := &attack.Forger{
		Node:     dep.Attackers[0],
		TargetGW: dep.LegitGWs[0].Node().Addr(),
		Flow:     PairLabel(legit.Node().Addr(), dep.Victim.Node().Addr()),
		Victim:   dep.Victim.Node().Addr(),
	}
	forger2.Evidence = []packet.RREntry{{Router: dep.LegitGWs[0].Node().Addr(), Nonce: 0xbad}}
	forger2.FireAt(2 * time.Second)

	dep.Run(10 * time.Second)

	if dep.Log.Count(EvFilterInstalled) != 0 {
		t.Fatalf("a forged request produced a filter:\n%s", dep.Log)
	}
	// The legitimate flow must be completely unaffected: all bytes of
	// a 50 KB/s flow over ~9 s of sending.
	if dep.Victim.Meter.Bytes == 0 {
		t.Fatal("legitimate flow never arrived")
	}
	gwStats := dep.LegitGWs[0].Stats()
	if gwStats.FilterDrops != 0 {
		t.Fatalf("legit gateway dropped %d packets of the flow", gwStats.FilterDrops)
	}
}

// TestSpoofedRequestViaWrongIface: a request not arriving through the
// client it claims to protect is rejected by the trivial ingress check.
func TestSpoofedRequestViaWrongIface(t *testing.T) {
	opt := DefaultOptions()
	opt.Detector = nil
	dep := DeployManyToOne(ManyToOneOptions{Options: opt, Attackers: 1, Legit: 1})

	// The attacker forges a StageToVictimGW request to the victim's
	// gateway, spoofing the victim as source, asking to block the
	// legit flow. It arrives via the core iface, not the victim's.
	legitAddr := dep.Legit[0].Node().Addr()
	victimAddr := dep.Victim.Node().Addr()
	eng := dep.Engine
	eng.ScheduleAt(time.Second, func() {
		req := &packet.FilterReq{
			Stage:    packet.StageToVictimGW,
			Flow:     PairLabel(legitAddr, victimAddr),
			Duration: time.Minute,
			Round:    1,
			Victim:   victimAddr,
			Evidence: []packet.RREntry{{Router: dep.VictimGW.Node().Addr(), Nonce: 1}},
		}
		pkt := packet.NewControl(victimAddr, dep.VictimGW.Node().Addr(), req)
		dep.Attackers[0].Node().Originate(pkt)
	})
	fl := dep.Flood(dep.Legit[0], dep.Victim, 50_000)
	fl.Launch()
	dep.Run(5 * time.Second)

	if got := dep.VictimGW.Stats().ReqInvalid; got == 0 {
		t.Fatalf("spoofed request was not flagged invalid:\n%s", dep.Log)
	}
	if dep.VictimGW.Stats().FilterDrops != 0 {
		t.Fatal("spoofed request blocked legitimate traffic")
	}
}

// TestManyToOneProtection: several simultaneous attackers are all
// filtered; legitimate traffic keeps flowing on the decongested tail.
func TestManyToOneProtection(t *testing.T) {
	opt := DefaultOptions()
	dep := DeployManyToOne(ManyToOneOptions{Options: opt, Attackers: 8, Legit: 2})
	army := &attack.Army{
		Zombies:       dep.Attackers,
		Dst:           dep.Victim.Node().Addr(),
		RatePerZombie: 300_000,
		PacketSize:    1000,
	}
	army.Launch()
	for _, l := range dep.Legit {
		dep.Flood(l, dep.Victim, 20_000).Launch()
	}
	dep.Run(10 * time.Second)

	// Every attacker's gateway ends up holding a filter.
	filtered := 0
	for _, g := range dep.AttackGWs {
		if g.Filters().Len() > 0 {
			filtered++
		}
	}
	if filtered != len(dep.AttackGWs) {
		t.Fatalf("only %d/%d attacker gateways hold filters", filtered, len(dep.AttackGWs))
	}
	// Post-mitigation the victim's traffic is dominated by legit flows:
	// compare last-second meters.
	var legitBytes, attackBytes uint64
	for src, m := range dep.Victim.PerSource {
		isAtk := false
		for _, a := range dep.Attackers {
			if a.Node().Addr() == src {
				isAtk = true
			}
		}
		// Count only traffic from the final 5 simulated seconds.
		for _, b := range m.Buckets() {
			if b.Index >= 5 {
				if isAtk {
					attackBytes += b.Bytes
				} else {
					legitBytes += b.Bytes
				}
			}
		}
	}
	if legitBytes == 0 {
		t.Fatal("legitimate traffic starved after mitigation")
	}
	if attackBytes > legitBytes/2 {
		t.Fatalf("attack traffic still dominates: atk=%d legit=%d", attackBytes, legitBytes)
	}
}

// TestDeterminism: identical options and workloads replay identically.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, int, sim.Time) {
		dep := DeployFigure1(DefaultOptions())
		fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
		fl.Launch()
		dep.Run(3 * time.Second)
		return dep.Victim.Meter.Bytes, dep.Log.Len(), dep.Now()
	}
	b1, e1, t1 := run()
	b2, e2, t2 := run()
	if b1 != b2 || e1 != e2 || t1 != t2 {
		t.Fatalf("runs diverged: (%d,%d,%v) vs (%d,%d,%v)", b1, e1, t1, b2, e2, t2)
	}
}

// TestIngressFilteringDropsSpoofs: with §III-A ingress filtering on
// the attacker's gateway (GatewaySpec.IngressHosts), spoofed packets
// die there.
func TestIngressFilteringDropsSpoofs(t *testing.T) {
	opt := DefaultOptions()
	topo, ids := topology.ManyToOne(1, 0, opt.Params)
	attacker, attackGW := ids.Attackers[0], ids.AttackGWs[0]
	dep := DeployTopology(opt, TopologySpec{
		Topo: topo,
		Gateways: []GatewaySpec{
			{Node: ids.VictimGW, Provider: NoProvider, Clients: []topology.NodeID{ids.Victim}},
			{Node: attackGW, Provider: NoProvider, Clients: []topology.NodeID{attacker}, IngressHosts: []topology.NodeID{attacker}},
		},
		Hosts: []HostSpec{
			{Node: ids.Victim, Gateway: ids.VictimGW, Victim: true},
			{Node: attacker, Gateway: attackGW, NonCompliant: true},
		},
	})
	victim := dep.Host(ids.Victim)
	fl := dep.Flood(dep.Host(attacker), victim, 100_000)
	fl.SpoofSrc = flow.MakeAddr(99, 0, 0, 1)
	fl.SpoofPerPacket = 50
	fl.Launch()
	dep.Run(3 * time.Second)

	if victim.Meter.Bytes != 0 {
		t.Fatal("spoofed traffic reached the victim despite ingress filtering")
	}
	if dep.Gateway(attackGW).Stats().SpoofDrops == 0 {
		t.Fatal("attacker gateway recorded no spoof drops")
	}
}
