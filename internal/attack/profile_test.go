package attack

import (
	"math/rand"
	"testing"
	"time"

	"aitf/internal/core"
	"aitf/internal/netsim"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// jitterHarness builds a tiny host-gateway-host network and returns the
// sending host plus the engine.
func jitterHarness(seed int64) (*sim.Engine, *core.Host, *core.Host) {
	eng := sim.NewEngine(seed)
	topo, ids := topology.Chain(1, topology.DefaultParams())
	net := netsim.MustBuild(eng, topo)
	mk := func(id, gw topology.NodeID) *core.Host {
		h := core.NewHost(core.DefaultHostConfig(net.Node(gw).Addr()))
		h.Attach(net.Node(id), nil)
		return h
	}
	return eng, mk(ids.Attacker, ids.AttackGW[0]), mk(ids.Victim, ids.VictimGW[0])
}

// TestFloodJitterDeterministic: the same explicit rng seed yields the
// identical packet schedule; a different seed yields a different one.
func TestFloodJitterDeterministic(t *testing.T) {
	run := func(rngSeed int64) (uint64, time.Duration) {
		eng, atk, vic := jitterHarness(1)
		fl := &Flood{
			From: atk, Dst: vic.Node().Addr(),
			Rate: 100_000, PacketSize: 1000,
			SrcPort: 4000, DstPort: 80,
			Jitter: 0.5,
			Rng:    rand.New(rand.NewSource(rngSeed)),
		}
		fl.Launch()
		eng.RunUntil(2 * time.Second)
		return fl.Sent, vic.Meter.Last()
	}
	s1, l1 := run(42)
	s2, l2 := run(42)
	if s1 != s2 || l1 != l2 {
		t.Fatalf("same rng seed diverged: sent %d/%d last %v/%v", s1, s2, l1, l2)
	}
	s3, l3 := run(43)
	if s1 == s3 && l1 == l3 {
		t.Fatal("different rng seeds produced identical jittered schedules")
	}
	if s1 == 0 {
		t.Fatal("flood sent nothing")
	}
}

// TestFloodJitterPreservesMeanRate: jittered gaps are mean-preserving,
// so the long-run packet count stays near rate/size.
func TestFloodJitterPreservesMeanRate(t *testing.T) {
	eng, atk, vic := jitterHarness(1)
	fl := &Flood{
		From: atk, Dst: vic.Node().Addr(),
		Rate: 100_000, PacketSize: 1000,
		SrcPort: 4000, DstPort: 80,
		Jitter: 0.8,
		Rng:    rand.New(rand.NewSource(7)),
	}
	fl.Launch()
	eng.RunUntil(10 * time.Second)
	want := 100_000.0 / 1000 * 10 // 1000 packets
	got := float64(fl.Sent)
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("jittered flood sent %v packets, want ≈ %v", got, want)
	}
}

// TestProfileLaunchShapes: each behavior produces the right workload
// object and actually emits traffic or requests.
func TestProfileLaunchShapes(t *testing.T) {
	eng, atk, vic := jitterHarness(1)
	rng := rand.New(rand.NewSource(1))

	steady := Profile{
		Behavior: Steady, From: atk, Target: vic.Node().Addr(),
		Rate: 50_000, Start: 0, Stop: sim.Time(2 * time.Second),
	}.Launch(rng)
	pulse := Profile{
		Behavior: Pulse, From: atk, Target: vic.Node().Addr(),
		Rate: 50_000, Start: 0, Stop: sim.Time(2 * time.Second),
		On: sim.Time(200 * time.Millisecond), Off: sim.Time(300 * time.Millisecond),
	}.Launch(rng)
	reqs := Profile{
		Behavior: RequestFlooder, From: atk,
		Gateway: atk.Config().Gateway,
		Rate:    20, Start: 0, Stop: sim.Time(2 * time.Second),
	}.Launch(rng)
	eng.RunUntil(3 * time.Second)

	if steady.Flood == nil || steady.Flood.Sent == 0 {
		t.Fatal("steady profile emitted nothing")
	}
	if pulse.Flood == nil || pulse.Flood.Sent == 0 {
		t.Fatal("pulse profile emitted nothing")
	}
	if pulse.Flood.Sent >= steady.Flood.Sent {
		t.Fatalf("pulse (%d) should send less than steady (%d)", pulse.Flood.Sent, steady.Flood.Sent)
	}
	if reqs.ReqFl == nil || reqs.ReqFl.Sent == 0 {
		t.Fatal("request flooder emitted nothing")
	}
}
