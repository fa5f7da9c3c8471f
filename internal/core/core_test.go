// Package core_test exercises the protocol engine's individual
// mechanisms (policing, handshake, shadow, disconnection, stop orders)
// through small deployments built with the public facade.
package core_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"aitf"
	"aitf/internal/core"
	"aitf/internal/flow"
	"aitf/internal/packet"
)

const floodBps = 1.25e6

// depth1 builds the smallest deployment: victim—v_gw—a_gw—attacker.
func depth1(opt aitf.Options, nonCoop bool, compliant bool) *aitf.ChainDeployment {
	nc := map[int]bool{}
	if nonCoop {
		nc[0] = true
	}
	return aitf.DeployChain(aitf.ChainOptions{
		Options:           opt,
		Depth:             1,
		NonCooperative:    nc,
		AttackerCompliant: compliant,
	})
}

func TestTempFilterLifecycle(t *testing.T) {
	dep := depth1(aitf.DefaultOptions(), false, true)
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	dep.Run(3 * time.Second)

	vgw := dep.VictimGWs[0]
	ev, ok := dep.Log.First(aitf.EvTempFilterInstalled)
	if !ok {
		t.Fatal("no temporary filter")
	}
	if ev.Node != "v_gw1" {
		t.Fatalf("temp filter at %s", ev.Node)
	}
	// After Ttmp + slack, the temporary filter has lapsed and the
	// takeover check has confirmed the attacker gateway's filter.
	if dep.Log.Count(aitf.EvTakeoverOK) == 0 {
		t.Fatalf("no takeover confirmation:\n%s", dep.Log)
	}
	vgw.Filters().Expire(dep.Now())
	if vgw.Filters().Len() != 0 {
		t.Fatalf("victim gateway still holds %d filters after Ttmp", vgw.Filters().Len())
	}
	// The shadow must outlive the temporary filter.
	if vgw.Shadows().Len() == 0 {
		t.Fatal("shadow entry missing after temp filter expiry")
	}
}

func TestShadowHitCountsReappearance(t *testing.T) {
	opt := aitf.DefaultOptions()
	dep := depth1(opt, true, false) // non-coop gateway, defiant attacker
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.On = 300 * time.Millisecond
	fl.Off = time.Second
	fl.Launch()
	dep.Run(5 * time.Second)

	st := dep.VictimGWs[0].Shadows().Stats()
	if st.Hits == 0 {
		t.Fatal("shadow cache recorded no hits for a pulsing flow")
	}
	if dep.VictimGWs[0].Stats().ShadowReblocks == 0 {
		t.Fatal("gateway never re-blocked from the shadow")
	}
}

func TestGatewayAutoReblocksWithoutVictim(t *testing.T) {
	run := func(mode aitf.ShadowMode) (reblocks uint64, leak uint64) {
		opt := aitf.DefaultOptions()
		opt.ShadowMode = mode
		dep := depth1(opt, true, false)
		fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
		fl.On = 300 * time.Millisecond
		fl.Off = time.Second
		fl.Launch()
		dep.Run(5 * time.Second)
		return dep.VictimGWs[0].Stats().ShadowReblocks, dep.Victim.Meter.Bytes
	}
	autoReblocks, autoLeak := run(aitf.GatewayAuto)
	_, victimLeak := run(aitf.VictimDriven)
	if autoReblocks == 0 {
		t.Fatal("no automatic re-blocks in gateway-auto mode")
	}
	// Data-path re-blocking beats waiting for the victim's re-request:
	// only in-flight packets leak.
	if autoLeak >= victimLeak {
		t.Fatalf("gateway-auto leak %d ≥ victim-driven leak %d", autoLeak, victimLeak)
	}
}

func TestHandshakeTimeoutOnSilentVictim(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := depth1(opt, false, false)
	agw := dep.AttackGWs[0]

	// Craft a request naming a victim that never asked for anything;
	// include genuine-looking evidence by replaying a stamped packet.
	attacker := dep.Attacker.Node().Addr()
	victim := dep.Victim.Node().Addr()
	// Let one real packet cross to collect authentic route records.
	probe := packet.NewData(attacker, victim, flow.ProtoUDP, 1, 2, 10)
	var path []packet.RREntry
	dep.Engine.ScheduleAt(0, func() { dep.Attacker.Node().Originate(probe) })
	dep.Run(time.Second)
	path = append(path, probe.Path...) // stamped in place as it crossed

	dep.Engine.ScheduleAt(dep.Now(), func() {
		req := &packet.FilterReq{
			Stage:    packet.StageToAttackerGW,
			Flow:     flow.PairLabel(attacker, victim),
			Duration: time.Minute,
			Round:    1,
			Victim:   victim, // real node, but it never requested blocking
			Evidence: path,
		}
		dep.Attacker.Node().Originate(packet.NewControl(
			dep.Attacker.Node().Addr(), agw.Node().Addr(), req))
	})
	dep.Run(5 * time.Second)

	if agw.Stats().HandshakesStarted == 0 {
		t.Fatalf("handshake never started:\n%s", dep.Log)
	}
	if agw.Stats().HandshakesFailed == 0 {
		t.Fatal("handshake should have timed out (victim never confirms)")
	}
	if agw.Filters().Len() != 0 {
		t.Fatal("filter installed despite failed handshake")
	}
}

func TestHandshakeRejectsWrongNonce(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := depth1(opt, false, false)
	agw := dep.AttackGWs[0]
	attacker := dep.Attacker.Node().Addr()
	victim := dep.Victim.Node().Addr()

	probe := packet.NewData(attacker, victim, flow.ProtoUDP, 1, 2, 10)
	dep.Engine.ScheduleAt(0, func() { dep.Attacker.Node().Originate(probe) })
	dep.Run(time.Second)

	dep.Engine.ScheduleAt(dep.Now(), func() {
		req := &packet.FilterReq{
			Stage: packet.StageToAttackerGW, Flow: flow.PairLabel(attacker, victim),
			Duration: time.Minute, Round: 1, Victim: victim,
			Evidence: append([]packet.RREntry(nil), probe.Path...),
		}
		dep.Attacker.Node().Originate(packet.NewControl(attacker, agw.Node().Addr(), req))
	})
	// The attacker races a guessed reply before the timeout.
	dep.Engine.ScheduleAt(dep.Now()+200*time.Millisecond, func() {
		dep.Attacker.Node().Originate(packet.NewControl(attacker, agw.Node().Addr(),
			&packet.VerifyReply{Flow: flow.PairLabel(attacker, victim), Nonce: 12345}))
	})
	dep.Run(5 * time.Second)

	if agw.Stats().HandshakesOK != 0 {
		t.Fatal("guessed nonce completed the handshake")
	}
	if agw.Filters().Len() != 0 {
		t.Fatal("filter installed from forged reply")
	}
}

func TestRequestPolicingPerIngress(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.ClientContract.R1 = 5
	opt.ClientContract.R1Burst = 2
	opt.Detector = nil
	dep := depth1(opt, false, false)
	vgw := dep.VictimGWs[0]
	victim := dep.Victim.Node().Addr()

	// 100 requests in one second from the victim: only ~R1+burst pass.
	for i := 0; i < 100; i++ {
		i := i
		dep.Engine.ScheduleAt(time.Duration(i)*10*time.Millisecond, func() {
			req := &packet.FilterReq{
				Stage:    packet.StageToVictimGW,
				Flow:     flow.PairLabel(flow.Addr(0xC0000000+uint32(i)), victim),
				Duration: time.Minute, Round: 1, Victim: victim,
			}
			dep.Victim.Node().Originate(packet.NewControl(victim, vgw.Node().Addr(), req))
		})
	}
	dep.Run(2 * time.Second)

	st := vgw.Stats()
	if st.ReqPoliced == 0 {
		t.Fatal("no requests policed")
	}
	processed := st.ReqReceived - st.ReqPoliced
	if processed > 10 { // 5/s * 1s + burst 2, with slack
		t.Fatalf("processed %d requests, want ≤ 10", processed)
	}
}

func TestStopOrderOnlyFromOwnGateway(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := depth1(opt, false, true)
	victim := dep.Victim.Node().Addr()
	attacker := dep.Attacker.Node().Addr()

	// The victim (not the attacker's gateway!) sends a stop order
	// straight to the attacker.
	dep.Engine.ScheduleAt(0, func() {
		order := &packet.FilterReq{
			Stage:    packet.StageToAttacker,
			Flow:     flow.PairLabel(attacker, victim),
			Duration: time.Minute, Victim: victim,
		}
		dep.Victim.Node().Originate(packet.NewControl(victim, attacker, order))
	})
	dep.Run(time.Second)

	if dep.Attacker.ActiveStopOrders() != 0 {
		t.Fatal("host accepted a stop order from a non-gateway")
	}
	// And via the real gateway it is accepted (end-to-end run with the
	// default detector enabled).
	dep2 := depth1(aitf.DefaultOptions(), false, true)
	fl := dep2.Flood(dep2.Attacker, dep2.Victim, floodBps)
	fl.Launch()
	dep2.Run(5 * time.Second)
	if dep2.Attacker.ActiveStopOrders() == 0 {
		t.Fatal("host rejected its own gateway's stop order")
	}
}

func TestDisconnectionBlocksAndExpires(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Timers.Penalty = 2 * time.Second
	dep := depth1(opt, false, false) // defiant attacker -> disconnection
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	// Disconnection lands within ~1s; the 2s penalty is still running
	// at t=2s and has lapsed by t=5s.
	dep.Run(2 * time.Second)

	agw := dep.AttackGWs[0]
	if dep.Log.Count(aitf.EvDisconnected) == 0 {
		t.Fatalf("defiant attacker not disconnected:\n%s", dep.Log)
	}
	if !agw.Disconnected(dep.Attacker.Node().Addr()) {
		t.Fatal("gateway does not report the client disconnected")
	}
	if agw.Stats().DisconnectDrops == 0 {
		t.Fatal("no packets dropped during disconnection")
	}
	// After the penalty the client may speak again.
	dep.Run(3 * time.Second)
	if agw.Disconnected(dep.Attacker.Node().Addr()) {
		t.Fatal("disconnection outlived the penalty")
	}
}

func TestFilterTableExhaustionSurfaced(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.FilterCapacity = 1 // absurd: one filter for everything
	dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{
		Options: opt, Attackers: 3, AttackersCompliant: true,
	})
	for _, a := range dep.Attackers {
		dep.Flood(a, dep.Victim, 300_000).Launch()
	}
	dep.Run(3 * time.Second)
	if dep.Log.Count(aitf.EvFilterRejected) == 0 {
		t.Fatalf("table exhaustion never surfaced:\n%s", dep.Log)
	}
}

func TestDepth1WorstCaseDisconnectsPeer(t *testing.T) {
	dep := depth1(aitf.DefaultOptions(), true, false) // a_gw1 refuses
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	dep.Run(10 * time.Second)

	// v_gw1 has no provider and a_gw1 is its direct peer: disconnect.
	found := false
	for _, e := range dep.Log.OfKind(aitf.EvDisconnected) {
		if e.Node == "v_gw1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("top gateway never disconnected the refusing peer:\n%s", dep.Log)
	}
}

func TestVictimRequestsRateLimited(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.ClientContract.R1 = 2
	opt.ClientContract.R1Burst = 1
	opt.ReRequestGap = time.Millisecond // pathological: try to spam
	dep := depth1(opt, true, false)
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.On = 300 * time.Millisecond
	fl.Off = time.Second
	fl.Launch()
	dep.Run(10 * time.Second)

	if dep.Victim.Stats().RequestsMuted == 0 {
		t.Fatal("host's own policer never muted a request")
	}
}

func TestHostMeterPerSource(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{Options: opt, Attackers: 2})
	dep.Flood(dep.Attackers[0], dep.Victim, 10_000).Launch()
	dep.Flood(dep.Attackers[1], dep.Victim, 20_000).Launch()
	dep.Run(4 * time.Second)

	m0 := dep.Victim.PerSource[dep.Attackers[0].Node().Addr()]
	m1 := dep.Victim.PerSource[dep.Attackers[1].Node().Addr()]
	if m0 == nil || m1 == nil {
		t.Fatal("per-source meters missing")
	}
	ratio := float64(m1.Bytes) / float64(m0.Bytes)
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("per-source accounting off: ratio = %v, want ≈2", ratio)
	}
}

func TestEventLogHelpers(t *testing.T) {
	var l aitf.Log
	l.Record(aitf.Event{Node: "a", Kind: aitf.EvRequestSent})
	l.Record(aitf.Event{Node: "b", Kind: aitf.EvRequestSent, Detail: "x"})
	l.Record(aitf.Event{Node: "c", Kind: aitf.EvDisconnected})
	if l.Count(aitf.EvRequestSent) != 2 {
		t.Fatal("Count wrong")
	}
	if e, ok := l.First(aitf.EvRequestSent); !ok || e.Node != "a" {
		t.Fatal("First wrong")
	}
	if _, ok := l.First(aitf.EvHandshakeOK); ok {
		t.Fatal("First found a missing kind")
	}
	if len(l.OfKind(aitf.EvDisconnected)) != 1 {
		t.Fatal("OfKind wrong")
	}
	s := l.String()
	if !strings.Contains(s, "request-sent") || !strings.Contains(s, "(x)") {
		t.Fatalf("String rendering: %q", s)
	}
	if aitf.EvShadowHit.String() != "shadow-hit" {
		t.Fatal("event kind name wrong")
	}
	if aitf.EventKind(200).String() == "" {
		t.Fatal("unknown kind must render")
	}
	for _, m := range []core.ShadowMode{core.VictimDriven, core.GatewayAuto, core.ShadowOff} {
		if m.String() == "mode?" {
			t.Fatal("named shadow mode must stringify")
		}
	}
}

func TestIngressCheckRejectsOffPathRequester(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{Options: opt, Attackers: 1, Legit: 1})
	vgw := dep.VictimGW

	// The attacker spoofs the victim's address in a request that
	// arrives via the core interface.
	dep.Engine.ScheduleAt(0, func() {
		req := &packet.FilterReq{
			Stage:    packet.StageToVictimGW,
			Flow:     flow.PairLabel(dep.Legit[0].Node().Addr(), dep.Victim.Node().Addr()),
			Duration: time.Minute, Round: 1, Victim: dep.Victim.Node().Addr(),
			Evidence: []packet.RREntry{{Router: vgw.Node().Addr(), Nonce: 99}},
		}
		p := packet.NewControl(dep.Victim.Node().Addr(), vgw.Node().Addr(), req)
		dep.Attackers[0].Node().Originate(p)
	})
	dep.Run(2 * time.Second)
	if vgw.Stats().ReqInvalid == 0 {
		t.Fatal("off-path request not rejected")
	}
}

func TestCompliantHostSuppressionRenewalCycle(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Timers.T = 2 * time.Second // short filter lifetime
	dep := depth1(opt, false, true)
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	dep.Run(time.Second)
	if dep.Attacker.ActiveStopOrders() == 0 {
		t.Fatal("stop order not active")
	}
	if fl.Suppressed == 0 {
		t.Fatal("no suppression while order active")
	}
	// After T the order expires, the flood resumes, the victim
	// re-detects, and a fresh round renews the stop order: the whole
	// protocol cycles without operator involvement.
	dep.Run(9 * time.Second)
	if got := dep.Attacker.Stats().StopOrders; got < 2 {
		t.Fatalf("stop orders = %d, want renewal (≥2):\n%s", got, dep.Log)
	}
	sentBefore := fl.Sent
	if sentBefore == 0 {
		t.Fatal("flood never resumed between filter lifetimes")
	}
}

// TestStopOrderChainPropagatation exercises the provider→client-network
// stop-order path (§II-D): a downstream gateway that receives a stop
// order from its own provider installs a filter and pushes the order
// toward the source, where the compliant host stops.
func TestStopOrderChainPropagation(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil // drive the order by hand
	dep := aitf.DeployChain(aitf.ChainOptions{
		Options: opt, Depth: 2, AttackerCompliant: true,
	})
	victim := dep.Victim.Node().Addr()
	attacker := dep.Attacker.Node().Addr()
	agw1, agw2 := dep.AttackGWs[0], dep.AttackGWs[1]

	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	dep.Run(time.Second)

	// a_gw2 (a_gw1's provider) orders the a_gw1 network to stop.
	dep.Engine.ScheduleAt(dep.Now(), func() {
		order := &packet.FilterReq{
			Stage:    packet.StageToAttacker,
			Flow:     flow.PairLabel(attacker, victim),
			Duration: time.Minute,
			Victim:   agw2.Node().Addr(),
		}
		agw2.Node().Originate(packet.NewControl(agw2.Node().Addr(), agw1.Node().Addr(), order))
	})
	dep.Run(2 * time.Second)

	// a_gw1 cooperates: filter installed, order forwarded to the host.
	if agw1.Filters().Len() == 0 {
		t.Fatalf("downstream gateway installed no filter:\n%s", dep.Log)
	}
	if dep.Attacker.ActiveStopOrders() == 0 {
		t.Fatal("stop order never reached the attacking host")
	}
	if fl.Suppressed == 0 {
		t.Fatal("compliant host did not stop")
	}
}

// TestStopOrderFromNonProviderIgnored: a stop order arriving at a
// gateway from anyone but its provider is rejected.
func TestStopOrderFromNonProviderIgnored(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := aitf.DeployChain(aitf.ChainOptions{Options: opt, Depth: 2, AttackerCompliant: true})
	victim := dep.Victim.Node().Addr()
	attacker := dep.Attacker.Node().Addr()
	agw1 := dep.AttackGWs[0]

	// The victim (not a_gw2!) sends the forged stop order to a_gw1.
	dep.Engine.ScheduleAt(0, func() {
		order := &packet.FilterReq{
			Stage:    packet.StageToAttacker,
			Flow:     flow.PairLabel(attacker, victim),
			Duration: time.Minute,
			Victim:   victim,
		}
		dep.Victim.Node().Originate(packet.NewControl(victim, agw1.Node().Addr(), order))
	})
	dep.Run(time.Second)
	if agw1.Filters().Len() != 0 {
		t.Fatal("gateway obeyed a stop order from a non-provider")
	}
	if agw1.Stats().ReqInvalid == 0 {
		t.Fatal("forged stop order not counted invalid")
	}
}

// TestGatewayAnswersHandshakeFromShadow: after the temporary filter
// lapses, the gateway can still answer verification queries for flows
// whose shadow entry is live (needed for late-round handshakes).
func TestGatewayAnswersHandshakeWhileEscalating(t *testing.T) {
	opt := aitf.DefaultOptions()
	dep := aitf.DeployChain(aitf.ChainOptions{
		Options: opt, Depth: 2,
		NonCooperative: map[int]bool{0: true},
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	dep.Run(10 * time.Second)

	// Round 2's handshake runs between a_gw2 and v_gw1 (the escalating
	// requester): v_gw1 must have answered at least one query.
	replied := false
	for _, e := range dep.Log.OfKind(aitf.EvHandshakeReply) {
		if e.Node == "v_gw1" {
			replied = true
		}
	}
	if !replied {
		t.Fatalf("escalating gateway never answered the round-2 handshake:\n%s", dep.Log)
	}
	// And the round-2 filter is on a_gw2.
	found := false
	for _, e := range dep.Log.OfKind(aitf.EvFilterInstalled) {
		if e.Node == "a_gw2" {
			found = true
		}
	}
	if !found {
		t.Fatal("round-2 filter missing at a_gw2")
	}
}

// TestStatsConcurrentWithClassification hammers Gateway.Stats from
// scraper goroutines while the simulation classifies a flood on the
// main goroutine — the exact overlap an admin /metrics endpoint
// produces against a running deployment. Run under -race this fails if
// any counter update or Stats read is non-atomic.
func TestStatsConcurrentWithClassification(t *testing.T) {
	dep := depth1(aitf.DefaultOptions(), false, true)
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	vgw, agw := dep.VictimGWs[0], dep.AttackGWs[0]

	// Fixed-count scrapers rather than a stop channel: on a single-P
	// runner the simulation can finish before a scraper is ever
	// scheduled, and a stop-channel worker would then exit having
	// scraped nothing. Every scraper always performs its full quota;
	// the interleaving with the classifying main goroutine is what the
	// race detector checks.
	const scrapersN, scrapesEach = 4, 2000
	var wg sync.WaitGroup
	for i := 0; i < scrapersN; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < scrapesEach; j++ {
				st := vgw.Stats()
				_ = agw.Stats()
				// A torn counter read would show up as garbage far
				// above any plausible packet budget.
				if st.DataForwarded > 1<<40 {
					t.Error("implausible DataForwarded snapshot")
					return
				}
			}
		}()
	}
	dep.Run(3 * time.Second)
	wg.Wait()
	st := vgw.Stats()
	if st.DataForwarded == 0 && st.FilterDrops == 0 {
		t.Fatalf("no traffic classified during the scrape window: %+v", st)
	}
}
