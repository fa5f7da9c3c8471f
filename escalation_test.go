package aitf

import (
	"fmt"
	"testing"
	"time"

	"aitf/internal/attack"
	"aitf/internal/core"
	"aitf/internal/sim"
)

// TestEscalationLadderDeepChain walks the full escalation ladder on a
// deep chain: five of six attacker-side gateways refuse, so the
// mechanism must climb round by round — four nodes at a time — until
// the sixth (cooperative) gateway finally pins the flow.
func TestEscalationLadderDeepChain(t *testing.T) {
	const depth = 6
	opt := DefaultOptions()
	// Deeper chains stretch the handshake; provision Ttmp accordingly
	// (§IV-B: "large enough to allow ... the 3-way handshake").
	opt.Timers.Ttmp = 2 * time.Second
	opt.Detector = func() core.Detector {
		return attack.NewDelayDetector(sim.Time(50 * time.Millisecond))
	}
	nonCoop := map[int]bool{}
	for i := 0; i < depth-1; i++ {
		nonCoop[i] = true
	}
	dep := DeployChain(ChainOptions{
		Options:        opt,
		Depth:          depth,
		NonCooperative: nonCoop,
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
	fl.On = 500 * time.Millisecond
	fl.Off = opt.Timers.Ttmp + 500*time.Millisecond
	fl.Launch()
	dep.Run(45 * time.Second)

	// The flow must finally be blocked at the one cooperative gateway,
	// the furthest from the attacker.
	want := fmt.Sprintf("a_gw%d", depth)
	blocked := false
	for _, e := range dep.Log.OfKind(EvFilterInstalled) {
		if e.Node == want {
			blocked = true
		}
	}
	if !blocked {
		t.Fatalf("ladder never reached %s:\n%s", want, dep.Log)
	}
	// Each victim-side gateway participated in exactly its own rounds:
	// requests were seen by every victim-side gateway.
	for i, g := range dep.VictimGWs {
		if g.Stats().ReqReceived == 0 {
			t.Fatalf("v_gw%d never saw a request — ladder skipped a level", i+1)
		}
	}
	// Once pinned, the flow stays dead: no traffic in the last 10 s.
	if last := dep.Victim.Meter.Last(); dep.Now()-last < 10*time.Second {
		t.Fatalf("victim still receiving at %v (end %v)", last, dep.Now())
	}
}

// TestRoundsInvolveFourNodes verifies the paper's scaling argument
// (§II-B, §V): in any single round, only the requester, its gateway,
// the attack-side target and the attacker exchange protocol messages —
// gateways above the active round stay idle.
func TestRoundsInvolveFourNodes(t *testing.T) {
	opt := DefaultOptions()
	// Ttmp must cover the depth-4 handshake plus drain (§IV-B), or the
	// takeover check concludes round 1 failed and spuriously escalates.
	opt.Timers.Ttmp = 1400 * time.Millisecond
	dep := DeployChain(ChainOptions{Options: opt, Depth: 4})
	fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
	fl.Launch()
	dep.Run(5 * time.Second)

	// Round 1 succeeded (cooperative a_gw1): v_gw2..v_gw4 and
	// a_gw2..a_gw4 must have processed zero protocol messages.
	for i := 1; i < 4; i++ {
		if n := dep.VictimGWs[i].Stats().MsgProcessed; n != 0 {
			t.Fatalf("v_gw%d processed %d messages in a round-1-only run", i+1, n)
		}
		if n := dep.AttackGWs[i].Stats().MsgProcessed; n != 0 {
			t.Fatalf("a_gw%d processed %d messages in a round-1-only run", i+1, n)
		}
	}
	if dep.AttackGWs[0].Stats().MsgProcessed == 0 {
		t.Fatal("a_gw1 processed nothing — the round never ran")
	}
}

// TestEscalationPastMidChainNonCooperative: two non-cooperating
// gateways in the *middle* of a depth-4 chain (indexes 0 and 1 on the
// attacker side). The ladder must walk past both and pin the flow at
// a_gw3 — the first cooperative attacker-side gateway — while the
// nodes above the resolved round (v_gw4, a_gw4) never process a single
// protocol message.
func TestEscalationPastMidChainNonCooperative(t *testing.T) {
	const depth = 4
	opt := DefaultOptions()
	opt.Timers.Ttmp = 2 * time.Second // room for the deep-chain handshake
	dep := DeployChain(ChainOptions{
		Options:        opt,
		Depth:          depth,
		NonCooperative: map[int]bool{0: true, 1: true},
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
	fl.Launch()
	dep.Run(20 * time.Second)

	installedAt := map[string]bool{}
	for _, e := range dep.Log.OfKind(EvFilterInstalled) {
		installedAt[e.Node] = true
	}
	if !installedAt["a_gw3"] {
		t.Fatalf("ladder never pinned the flow at a_gw3:\n%s", dep.Log)
	}
	if installedAt["a_gw1"] || installedAt["a_gw2"] {
		t.Fatalf("a non-cooperating gateway installed a filter: %v", installedAt)
	}
	// Every victim-side gateway up to the resolving round participated.
	for i := 0; i < 3; i++ {
		if dep.VictimGWs[i].Stats().ReqReceived == 0 {
			t.Fatalf("v_gw%d never saw a request — ladder skipped a level", i+1)
		}
	}
	// Gateways above the resolved round stayed idle (§II-B: four nodes
	// per round).
	if n := dep.VictimGWs[3].Stats().MsgProcessed; n != 0 {
		t.Fatalf("v_gw4 processed %d messages beyond the resolved round", n)
	}
	if n := dep.AttackGWs[3].Stats().MsgProcessed; n != 0 {
		t.Fatalf("a_gw4 processed %d messages beyond the resolved round", n)
	}
	// Once pinned, the victim stays quiet.
	if last := dep.Victim.Meter.Last(); dep.Now()-last < 8*time.Second {
		t.Fatalf("victim still receiving at %v (end %v)", last, dep.Now())
	}
}

// TestConcurrentEscalationFilterPressure: a dozen concurrent attacks
// against a victim gateway provisioned with only four wire-speed
// filters. The table must reject the overflow (RejectNew), never
// exceed its budget, and still protect against as many flows as it can
// hold — the §IV-B resource argument under deliberate starvation.
func TestConcurrentEscalationFilterPressure(t *testing.T) {
	const attackers = 12
	opt := DefaultOptions()
	opt.FilterCapacity = 4
	dep := DeployManyToOne(ManyToOneOptions{
		Options:   opt,
		Attackers: attackers,
	})
	for i, a := range dep.Attackers {
		fl := dep.Flood(a, dep.Victim, 3e5)
		fl.SrcPort = uint16(5000 + i)
		fl.Launch()
	}
	dep.Run(10 * time.Second)

	if n := dep.Log.Count(EvFilterRejected); n == 0 {
		t.Fatal("no filter rejections under 3x capacity pressure")
	}
	if n := dep.Log.Count(EvTempFilterInstalled); n == 0 {
		t.Fatal("no filters installed at all — protection collapsed entirely")
	}
	st := dep.VictimGW.Filters().Stats()
	if st.PeakOccupancy > opt.FilterCapacity {
		t.Fatalf("filter peak %d exceeded capacity %d", st.PeakOccupancy, opt.FilterCapacity)
	}
	if st.Rejected == 0 {
		t.Fatal("dataplane never rejected an install")
	}
	// The shadow cache (provisioned independently) kept every request.
	if dep.VictimGW.Shadows().Stats().PeakSize > dep.VictimGW.Config().ShadowCapacity {
		t.Fatal("shadow cache exceeded its budget")
	}
}

// TestEffectiveBandwidthScalesWithTr checks the r-formula's Tr
// dependence (§IV-A.1): halving the victim→gateway delay halves the
// per-round leak.
func TestEffectiveBandwidthScalesWithTr(t *testing.T) {
	run := func(tr time.Duration) float64 {
		opt := DefaultOptions()
		opt.Params.AccessDelay = tr
		opt.Detector = func() core.Detector {
			return attack.NewDelayDetector(sim.Time(10 * time.Millisecond))
		}
		dep := DeployChain(ChainOptions{
			Options:        opt,
			Depth:          3,
			NonCooperative: map[int]bool{0: true, 1: true, 2: true},
		})
		fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
		fl.On = 300 * time.Millisecond
		fl.Off = time.Second
		fl.Launch()
		dep.Run(30 * time.Second)
		return float64(dep.Victim.Meter.Bytes)
	}
	leakFast := run(10 * time.Millisecond)
	leakSlow := run(100 * time.Millisecond)
	if leakSlow <= leakFast {
		t.Fatalf("leak should grow with Tr: %v (10ms) vs %v (100ms)", leakFast, leakSlow)
	}
}

// TestPenaltyReleasesPeeringLink: after the worst-case disconnection,
// the peering link recovers when the penalty lapses, and a well-behaved
// flow can cross again.
func TestPenaltyReleasesPeeringLink(t *testing.T) {
	opt := DefaultOptions()
	opt.Timers.Penalty = 3 * time.Second
	dep := DeployChain(ChainOptions{
		Options:        opt,
		Depth:          1,
		NonCooperative: map[int]bool{0: true},
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
	fl.Stop = 4 * time.Second // attack ends during the penalty
	fl.Launch()
	dep.Run(10 * time.Second)
	if dep.Log.Count(EvDisconnected) == 0 {
		t.Fatalf("worst case did not disconnect:\n%s", dep.Log)
	}

	// After the penalty, a fresh legitimate flow crosses the link.
	before := dep.Victim.Meter.Bytes
	fl2 := dep.Flood(dep.Attacker, dep.Victim, 10_000) // modest, undetected
	fl2.Start = dep.Now()
	fl2.Launch()
	dep.Run(3 * time.Second)
	if dep.Victim.Meter.Bytes <= before {
		t.Fatal("peering link still dead after the penalty lapsed")
	}
}
