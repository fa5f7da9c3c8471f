package aitf

import (
	"testing"
	"time"

	"aitf/internal/flow"
)

func TestReexportedHelpers(t *testing.T) {
	tm := DefaultTimers()
	if tm.T != time.Minute || tm.Ttmp != 600*time.Millisecond {
		t.Fatalf("DefaultTimers = %+v", tm)
	}
	c := DefaultEndHostContract()
	if c.R1 != 100 || c.R2 != 1 {
		t.Fatalf("DefaultEndHostContract = %+v", c)
	}
	p := Provision(c, tm)
	if p.ProtectedFlows != 6000 || p.VictimGatewayFilters != 60 ||
		p.VictimGatewayShadows != 6000 || p.AttackerGatewayFilters != 60 {
		t.Fatalf("Provision = %+v, want the paper's worked example", p)
	}
	if r := BandwidthReduction(1, 0, 50*time.Millisecond, time.Minute); r < 0.0008 || r > 0.0009 {
		t.Fatalf("BandwidthReduction = %v, want ≈0.00083", r)
	}
	a := flow.MakeAddr(10, 1, 2, 3)
	l := PairLabel(a, flow.MakeAddr(10, 0, 0, 1))
	if l.Src != a {
		t.Fatalf("PairLabel = %+v", l)
	}
}

func TestOptionsDerivedCapacities(t *testing.T) {
	opt := DefaultOptions()
	// Derived per the paper: nv (60) + na toward the peer contract
	// (R2=100/s × 60 s = 6000) + na toward one client (60).
	cfg := opt.gatewayConfig()
	if cfg.FilterCapacity != 60+6000+60 {
		t.Fatalf("derived filter capacity = %d, want 6120", cfg.FilterCapacity)
	}
	if cfg.ShadowCapacity != 6000 {
		t.Fatalf("derived shadow capacity = %d, want 6000", cfg.ShadowCapacity)
	}
	opt.FilterCapacity = 7
	if cfg := opt.gatewayConfig(); cfg.FilterCapacity != 7 || cfg.ShadowCapacity != 6000 {
		t.Fatalf("explicit filter capacity: %d filters, %d shadows; want 7 and 6000", cfg.FilterCapacity, cfg.ShadowCapacity)
	}
}

func TestDeploySharedGatewayEndToEnd(t *testing.T) {
	opt := DefaultOptions()
	dep := DeploySharedGateway(SharedGatewayOptions{
		Options:            opt,
		Attackers:          3,
		Victims:            2,
		AttackersCompliant: true,
	})
	// Attacker 0 floods both victims; both flows must be filtered at
	// the shared attacker gateway.
	for _, v := range dep.Victims {
		dep.Flood(dep.Attackers[0], v, 1.25e6).Launch()
	}
	dep.Run(5 * time.Second)

	if dep.AttackGW.Filters().Len() != 2 {
		t.Fatalf("attack gateway filters = %d, want 2 (one per victim):\n%s",
			dep.AttackGW.Filters().Len(), dep.Log)
	}
	if dep.Attackers[0].ActiveStopOrders() == 0 {
		t.Fatal("client holds no stop orders")
	}
	for _, v := range dep.Victims {
		if v.Meter.Idle() {
			t.Fatal("victim never saw the pre-filter leak")
		}
	}
}

func TestDeploymentAccessors(t *testing.T) {
	dep := DeployFigure1(DefaultOptions())
	if len(dep.Gateways) != 6 || len(dep.Hosts) != 2 {
		t.Fatalf("deployment has %d gateways, %d hosts", len(dep.Gateways), len(dep.Hosts))
	}
	if dep.Now() != 0 {
		t.Fatal("fresh deployment clock nonzero")
	}
	dep.Run(time.Second)
	if dep.Now() != time.Second {
		t.Fatalf("Now = %v after Run(1s)", dep.Now())
	}
	// Gateways know their configuration.
	g := dep.VictimGWs[0]
	if g.Config().Timers.T != time.Minute {
		t.Fatal("gateway config not propagated")
	}
	if g.Node().Name() != "v_gw1" {
		t.Fatalf("gateway bound to %s", g.Node().Name())
	}
}

func TestNoTraceOption(t *testing.T) {
	opt := DefaultOptions()
	opt.CollectTrace = false
	dep := DeployFigure1(opt)
	if dep.Log != nil {
		t.Fatal("log allocated despite CollectTrace=false")
	}
	fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
	fl.Launch()
	dep.Run(2 * time.Second) // must not panic without a tracer
	if dep.Victim.Meter.Idle() {
		t.Fatal("nothing simulated")
	}
}

func TestSeedChangesInterleavingNotOutcome(t *testing.T) {
	run := func(seed int64) (string, uint64) {
		opt := DefaultOptions()
		opt.Seed = seed
		dep := DeployFigure1(opt)
		fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
		fl.Launch()
		dep.Run(3 * time.Second)
		where := ""
		if e, ok := dep.Log.First(EvFilterInstalled); ok {
			where = e.Node
		}
		return where, dep.Victim.Meter.Bytes
	}
	w1, _ := run(1)
	w2, _ := run(42)
	if w1 != "a_gw1" || w2 != "a_gw1" {
		t.Fatalf("protocol outcome depends on seed: %q vs %q", w1, w2)
	}
}
