package topology

import (
	"math/rand"
	"testing"

	"aitf/internal/flow"
)

func TestFigure1Shape(t *testing.T) {
	topo, n := Figure1(DefaultParams())
	if len(topo.Nodes) != 8 {
		t.Fatalf("nodes = %d, want 8", len(topo.Nodes))
	}
	if len(topo.Links) != 7 {
		t.Fatalf("links = %d, want 7 (a chain)", len(topo.Links))
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	// The two hosts are AITF end-hosts; everything else border routers.
	for _, id := range []NodeID{n.GHost, n.BHost} {
		if topo.Nodes[id].Kind != KindHost {
			t.Errorf("%s kind = %v", topo.Nodes[id].Name, topo.Nodes[id].Kind)
		}
	}
	for _, id := range []NodeID{n.GGw1, n.GGw2, n.GGw3, n.BGw1, n.BGw2, n.BGw3} {
		if topo.Nodes[id].Kind != KindBorderRouter {
			t.Errorf("%s kind = %v", topo.Nodes[id].Name, topo.Nodes[id].Kind)
		}
	}
	// Named lookup agrees with IDs.
	if got, ok := topo.ByName("B_gw1"); !ok || got.ID != n.BGw1 {
		t.Fatalf("ByName(B_gw1) = %+v, %v", got, ok)
	}
}

func TestFigure1Routing(t *testing.T) {
	topo, n := Figure1(DefaultParams())
	hops := topo.Routes()
	// G_host's next hop to B_host is G_gw1, then the chain.
	if hops.Next(n.GHost, n.BHost) != n.GGw1 {
		t.Fatal("G_host should route to B_host via G_gw1")
	}
	if hops.Next(n.GGw1, n.BHost) != n.GGw2 {
		t.Fatal("G_gw1 should route to B_host via G_gw2")
	}
	if hops.Next(n.GGw3, n.BHost) != n.BGw3 {
		t.Fatal("G_gw3 should route to B_host via B_gw3")
	}
	if hops.Next(n.BGw1, n.BHost) != n.BHost {
		t.Fatal("B_gw1 routes directly to its client")
	}
	// Reverse direction mirrors.
	if hops.Next(n.BHost, n.GHost) != n.BGw1 {
		t.Fatal("B_host should route via B_gw1")
	}
}

func TestChainMatchesFigure1(t *testing.T) {
	topo, n := Chain(3, DefaultParams())
	if len(topo.Nodes) != 8 || len(topo.Links) != 7 {
		t.Fatalf("Chain(3) = %d nodes %d links", len(topo.Nodes), len(topo.Links))
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.VictimGW) != 3 || len(n.AttackGW) != 3 {
		t.Fatalf("gateway slices = %d/%d", len(n.VictimGW), len(n.AttackGW))
	}
	// Path order: victim gw1..3, then attacker gw3..1, then attacker.
	hops := topo.Routes()
	if hops.Next(n.VictimGW[2], n.Attacker) != n.AttackGW[2] {
		t.Fatal("top victim gateway should peer with top attacker gateway")
	}
	if hops.Next(n.AttackGW[0], n.Attacker) != n.Attacker {
		t.Fatal("bottom attacker gateway serves the attacker directly")
	}
}

func TestChainDepthOne(t *testing.T) {
	topo, n := Chain(1, DefaultParams())
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	hops := topo.Routes()
	if hops.Next(n.VictimGW[0], n.Attacker) != n.AttackGW[0] {
		t.Fatal("depth-1 chain: victim gw peers directly with attacker gw")
	}
}

func TestChainPanicsOnBadDepth(t *testing.T) {
	for _, d := range []int{0, -1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Chain(%d) did not panic", d)
				}
			}()
			Chain(d, DefaultParams())
		}()
	}
}

func TestManyToOne(t *testing.T) {
	topo, n := ManyToOne(5, 3, DefaultParams())
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Attackers) != 5 || len(n.AttackGWs) != 5 || len(n.Legit) != 3 {
		t.Fatalf("site counts wrong: %+v", n)
	}
	// 3 base nodes + 2 per site.
	if want := 3 + 2*(5+3); len(topo.Nodes) != want {
		t.Fatalf("nodes = %d, want %d", len(topo.Nodes), want)
	}
	hops := topo.Routes()
	// Every attacker reaches the victim through its own gateway, the
	// core, and the victim's gateway.
	for i, a := range n.Attackers {
		if hops.Next(a, n.Victim) != n.AttackGWs[i] {
			t.Fatalf("attacker %d first hop wrong", i)
		}
		if hops.Next(n.AttackGWs[i], n.Victim) != n.Core {
			t.Fatalf("attacker gw %d should route via core", i)
		}
	}
	if hops.Next(n.Core, n.Victim) != n.VictimGW {
		t.Fatal("core should route via victim gw")
	}
	// Core router is not an AITF node.
	if topo.Nodes[n.Core].Kind != KindInternalRouter {
		t.Fatal("core should be an internal router")
	}
}

func TestManyToOneLargeAddressing(t *testing.T) {
	// Crossing the /24-ish boundary (250 hosts per block) must not
	// produce duplicate addresses; AddNode would panic.
	topo, _ := ManyToOne(600, 0, DefaultParams())
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedGateway(t *testing.T) {
	topo, n := SharedGateway(10, 3, DefaultParams())
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Victims) != 3 || len(n.Attackers) != 10 {
		t.Fatalf("host counts: %d victims, %d attackers", len(n.Victims), len(n.Attackers))
	}
	hops := topo.Routes()
	for _, a := range n.Attackers {
		for _, v := range n.Victims {
			if hops.Next(a, v) != n.AttackGW {
				t.Fatal("all attackers share one gateway")
			}
		}
	}
	if hops.Next(n.AttackGW, n.Victim()) != n.VictimGW {
		t.Fatal("attack gw peers with victim gw")
	}
}

func TestAddNodeDuplicatePanics(t *testing.T) {
	topo := New()
	topo.AddNode("a", flow.MakeAddr(1, 1, 1, 1), KindHost, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate addr did not panic")
			}
		}()
		topo.AddNode("b", flow.MakeAddr(1, 1, 1, 1), KindHost, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate name did not panic")
			}
		}()
		topo.AddNode("a", flow.MakeAddr(2, 2, 2, 2), KindHost, 1)
	}()
}

func TestSelfLinkPanics(t *testing.T) {
	topo := New()
	a := topo.AddNode("a", flow.MakeAddr(1, 1, 1, 1), KindHost, 1)
	defer func() {
		if recover() == nil {
			t.Error("self link did not panic")
		}
	}()
	topo.AddLink(a, a, 0, 0, 0)
}

func TestValidateDisconnected(t *testing.T) {
	topo := New()
	topo.AddNode("a", flow.MakeAddr(1, 1, 1, 1), KindHost, 1)
	topo.AddNode("b", flow.MakeAddr(2, 2, 2, 2), KindHost, 2)
	if err := topo.Validate(); err == nil {
		t.Fatal("disconnected topology validated")
	}
	if err := New().Validate(); err == nil {
		t.Fatal("empty topology validated")
	}
}

func TestLookup(t *testing.T) {
	topo, n := Figure1(DefaultParams())
	addr := topo.Nodes[n.BGw2].Addr
	got, ok := topo.Lookup(addr)
	if !ok || got.ID != n.BGw2 {
		t.Fatalf("Lookup(%v) = %+v, %v", addr, got, ok)
	}
	if _, ok := topo.Lookup(flow.MakeAddr(9, 9, 9, 9)); ok {
		t.Fatal("Lookup of unknown addr succeeded")
	}
	if _, ok := topo.ByName("nobody"); ok {
		t.Fatal("ByName of unknown name succeeded")
	}
	if len(topo.Neighbors(n.GGw2)) != 2 {
		t.Fatal("G_gw2 should have two neighbors")
	}
}

// TestRoutesNoRoute: a node has no next hop toward itself or toward a
// node in another component, and Validate names such a pair.
func TestRoutesNoRoute(t *testing.T) {
	topo := New()
	a := topo.AddNode("a", flow.MakeAddr(1, 1, 1, 1), KindHost, 1)
	b := topo.AddNode("b", flow.MakeAddr(2, 2, 2, 2), KindHost, 1)
	c := topo.AddNode("c", flow.MakeAddr(3, 3, 3, 3), KindHost, 2)
	topo.AddLink(a, b, 0, 0, 0)
	r := topo.Routes()
	if r.Next(a, b) != b || r.Next(b, a) != a {
		t.Fatal("linked nodes should route to each other directly")
	}
	for _, pair := range [][2]NodeID{{a, a}, {b, b}, {c, c}, {a, c}, {c, a}, {b, c}, {c, b}} {
		if got := r.Next(pair[0], pair[1]); got != NoRoute {
			t.Fatalf("Next(%d, %d) = %d, want NoRoute", pair[0], pair[1], got)
		}
	}
	err := topo.Validate()
	if err == nil || err.Error() != "topology: a cannot reach c" {
		t.Fatalf("Validate = %v, want a cannot reach c", err)
	}
}

// TestRoutesShortestAndTieBreak: between equal-length paths a node
// routes through the neighbor whose link was added first (the order
// every simulated event trace depends on), and on a random internet
// following next hops takes the shortest hop count between every pair.
func TestRoutesShortestAndTieBreak(t *testing.T) {
	diamond := New()
	var ids [4]NodeID
	for i := range ids {
		ids[i] = diamond.AddNode(string(rune('a'+i)), flow.MakeAddr(1, 1, 1, byte(i+1)), KindInternalRouter, 1)
	}
	s, hi, lo, d := ids[0], ids[1], ids[2], ids[3]
	// s reaches d through lo or hi; d's link to hi comes first.
	diamond.AddLink(s, lo, 0, 0, 0)
	diamond.AddLink(s, hi, 0, 0, 0)
	diamond.AddLink(d, hi, 0, 0, 0)
	diamond.AddLink(d, lo, 0, 0, 0)
	r := diamond.Routes()
	if got := r.Next(s, d); got != hi {
		t.Fatalf("s routes to d via %d, want %d (d's first link)", got, hi)
	}
	if got := r.Next(d, s); got != lo {
		t.Fatalf("d routes to s via %d, want %d (s's first link)", got, lo)
	}

	spec := RandomSpec{ASes: 12, Tier1: 3, MaxHostsPerAS: 3, InternalRouterProb: 0.3, Params: DefaultParams()}
	topo, _ := Random(spec, rand.New(rand.NewSource(5)))
	r = topo.Routes()
	n := len(topo.Nodes)
	// Reference distances by Floyd–Warshall over the link list.
	want := make([][]int, n)
	for i := range want {
		want[i] = make([]int, n)
		for j := range want[i] {
			if i != j {
				want[i][j] = n
			}
		}
	}
	for _, l := range topo.Links {
		want[l.A][l.B], want[l.B][l.A] = 1, 1
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if via := want[i][k] + want[k][j]; via < want[i][j] {
					want[i][j] = via
				}
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			hops := 0
			for cur := NodeID(a); cur != NodeID(b); hops++ {
				if cur = r.Next(cur, NodeID(b)); cur == NoRoute || hops > n {
					t.Fatalf("route %d->%d broken after %d hops", a, b, hops)
				}
			}
			if hops != want[a][b] {
				t.Fatalf("route %d->%d takes %d hops, shortest is %d", a, b, hops, want[a][b])
			}
		}
	}
}
