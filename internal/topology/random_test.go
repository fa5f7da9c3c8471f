package topology

import (
	"math/rand"
	"testing"
)

func TestRandomTopologyIsValidAndDeterministic(t *testing.T) {
	spec := RandomSpec{
		ASes:               20,
		Tier1:              3,
		MaxHostsPerAS:      4,
		InternalRouterProb: 0.3,
		Params:             DefaultParams(),
	}
	build := func(seed int64) (*Topology, RandomNodes) {
		return Random(spec, rand.New(rand.NewSource(seed)))
	}
	topo, nodes := build(7)
	if err := topo.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	if len(nodes.Border) != spec.ASes || len(nodes.Hosts) != spec.ASes {
		t.Fatalf("structure sizes: %d borders, %d host groups", len(nodes.Border), len(nodes.Hosts))
	}
	for i, hs := range nodes.Hosts {
		if len(hs) < 1 || len(hs) > spec.MaxHostsPerAS {
			t.Fatalf("AS %d has %d hosts, want 1..%d", i, len(hs), spec.MaxHostsPerAS)
		}
	}
	for i, p := range nodes.Parent {
		if i < spec.Tier1 {
			if p != -1 {
				t.Fatalf("tier-1 AS %d has parent %d", i, p)
			}
		} else if p < 0 || p >= i {
			t.Fatalf("AS %d has parent %d, want an earlier AS", i, p)
		}
	}

	// Same seed, identical graph; different seed, (almost surely) not.
	topo2, _ := build(7)
	if len(topo2.Nodes) != len(topo.Nodes) || len(topo2.Links) != len(topo.Links) {
		t.Fatal("same seed produced a different graph")
	}
	for i := range topo.Nodes {
		if topo.Nodes[i] != topo2.Nodes[i] {
			t.Fatalf("node %d differs between identical seeds", i)
		}
	}
	topo3, _ := build(8)
	if len(topo3.Nodes) == len(topo.Nodes) && len(topo3.Links) == len(topo.Links) {
		same := true
		for i := range topo.Nodes {
			if topo.Nodes[i] != topo3.Nodes[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestRandomASPathMatchesRouting(t *testing.T) {
	spec := RandomSpec{ASes: 15, Tier1: 2, MaxHostsPerAS: 2, Params: DefaultParams()}
	rng := rand.New(rand.NewSource(3))
	topo, nodes := Random(spec, rng)
	hops := topo.Routes()

	// Walking next hops between two borders must visit exactly the
	// border routers ASPath names (internal routers and hosts are never
	// on border-to-border routes).
	walk := func(a, b NodeID) []NodeID {
		var path []NodeID
		cur := a
		for cur != b {
			path = append(path, cur)
			next := hops.Next(cur, b)
			if next == NoRoute {
				t.Fatalf("no route %v -> %v", a, b)
			}
			cur = next
			if len(path) > len(topo.Nodes) {
				t.Fatalf("routing loop %v -> %v", a, b)
			}
		}
		return append(path, b)
	}
	for _, pair := range [][2]int{{3, 11}, {14, 2}, {0, 1}, {5, 5}} {
		a, b := pair[0], pair[1]
		want := nodes.ASPath(a, b)
		got := walk(nodes.Border[a], nodes.Border[b])
		if len(got) != len(want) {
			t.Fatalf("AS %d->%d: routed path %v vs ASPath %v", a, b, got, want)
		}
		for i, as := range want {
			if got[i] != nodes.Border[as] {
				t.Fatalf("AS %d->%d hop %d: routed %v, ASPath AS %d", a, b, i, got[i], as)
			}
		}
	}
}
