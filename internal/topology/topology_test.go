package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
	if got := topo.Nodes[n.BGw1]; got.ID != n.BGw1 || got.Name != "B_gw1" {
		t.Fatalf("Nodes[BGw1] = %+v", got)
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
	if hops.Next(n.AttackGW, n.Victims[0]) != n.VictimGW {
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
	// A duplicate name is Validate's to report.
	topo.AddNode("a", flow.MakeAddr(2, 2, 2, 2), KindHost, 1)
	if err := topo.Validate(); err == nil || !strings.Contains(err.Error(), `duplicate name "a"`) {
		t.Errorf("Validate with a duplicate name = %v", err)
	}
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
	got, ok := topo.ID(addr)
	if !ok || got != n.BGw2 {
		t.Fatalf("ID(%v) = %v, %v", addr, got, ok)
	}
	if _, ok := topo.ID(flow.MakeAddr(9, 9, 9, 9)); ok {
		t.Fatal("ID of unknown addr succeeded")
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
	// A depth-2 tree hangs off d: traffic from s toward any of its nodes
	// crosses the cycle as traffic toward d does, and climbs back out
	// through d and lo.
	var tree [3]NodeID
	for i := range tree {
		tree[i] = diamond.AddNode(fmt.Sprint("t", i), flow.MakeAddr(1, 1, 2, byte(i+1)), KindHost, 1)
	}
	diamond.AddLink(d, tree[0], 0, 0, 0)
	diamond.AddLink(tree[0], tree[1], 0, 0, 0)
	diamond.AddLink(tree[0], tree[2], 0, 0, 0)
	r = diamond.Routes()
	for _, x := range append(tree[:], d) {
		if got := r.Next(s, x); got != hi {
			t.Fatalf("s routes to %d via %d, want %d as toward d", x, got, hi)
		}
	}
	for _, hop := range [][3]NodeID{{tree[1], s, tree[0]}, {tree[0], s, d}, {d, s, lo}, {tree[1], tree[2], tree[0]}, {d, tree[2], tree[0]}} {
		if got := r.Next(hop[0], hop[1]); got != hop[2] {
			t.Fatalf("Next(%d, %d) = %d, want %d", hop[0], hop[1], got, hop[2])
		}
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

func TestParallelLinkPanics(t *testing.T) {
	topo := New()
	a := topo.AddNode("a", flow.MakeAddr(1, 1, 1, 1), KindHost, 1)
	b := topo.AddNode("b", flow.MakeAddr(2, 2, 2, 2), KindBorderRouter, 1)
	topo.AddLink(a, b, 0, 0, 0)
	for _, pair := range [][2]NodeID{{a, b}, {b, a}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("parallel link %d-%d did not panic", pair[0], pair[1])
				}
			}()
			topo.AddLink(pair[0], pair[1], 0, 0, 0)
		}()
	}
	if len(topo.Links) != 1 || len(topo.Neighbors(a)) != 1 || len(topo.Neighbors(b)) != 1 {
		t.Fatalf("a refused link was recorded: %d links", len(topo.Links))
	}
}

// denseRoutes is the reference next-hop table one destination at a
// time: a BFS from dst over Neighbors, each node's next hop being the
// node the search first reached it from. It returns every node's next
// hop toward dst, NoRoute for dst itself and for nodes it cannot reach.
func denseRoutes(topo *Topology, dst NodeID) []NodeID {
	next := slices.Repeat([]NodeID{NoRoute}, len(topo.Nodes))
	next[dst] = dst
	queue := []NodeID{dst}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range topo.Neighbors(u) {
			if next[v] == NoRoute {
				next[v] = u
				queue = append(queue, v)
			}
		}
	}
	next[dst] = NoRoute
	return next
}

// checkAgainstDense fails unless Routes.Next equals denseRoutes for
// every (from, dst) pair of topo, and each node's component label is
// the lowest node that reaches it.
func checkAgainstDense(t *testing.T, name string, topo *Topology) {
	t.Helper()
	r := topo.Routes()
	for dst := range NodeID(len(topo.Nodes)) {
		lowest := dst
		for from, hop := range denseRoutes(topo, dst) {
			if got := r.Next(NodeID(from), dst); got != hop {
				t.Fatalf("%s: Next(%d, %d) = %d, reference %d", name, from, dst, got, hop)
			}
			if hop != NoRoute {
				lowest = min(lowest, NodeID(from))
			}
		}
		if got := NodeID(r.nodes[dst].comp); got != lowest {
			t.Fatalf("%s: node %d labelled component %d, want %d", name, dst, got, lowest)
		}
	}
}

// TestRoutesMatchDense: the routes answer exactly as the dense
// reference on every builder, on random internets, and on hand-built
// graphs with disconnected parts, isolated nodes, hubs of up to 20
// links, and the trees whose lookups need care: a tree node's up port
// among its child ports, a core node with several branches, and a tree
// component rooted above its lowest node.
func TestRoutesMatchDense(t *testing.T) {
	p := DefaultParams()
	fig1, _ := Figure1(p)
	checkAgainstDense(t, "Figure1", fig1)
	for depth := 1; depth <= 6; depth++ {
		topo, _ := Chain(depth, p)
		checkAgainstDense(t, fmt.Sprintf("Chain(%d)", depth), topo)
	}
	for _, zombies := range []int{500, 2000} {
		army, _ := ManyToOne(zombies, 4, p)
		checkAgainstDense(t, fmt.Sprintf("ManyToOne(%d, 4)", zombies), army)
	}
	shared, _ := SharedGateway(10, 3, p)
	checkAgainstDense(t, "SharedGateway", shared)
	for seed := int64(1); seed <= 200; seed++ {
		spec := RandomSpec{
			ASes: 2 + int(seed%23), Tier1: 1 + int(seed%4), MaxHostsPerAS: 1 + int(seed%5),
			InternalRouterProb: 0.3, Params: p,
		}
		topo, _ := Random(spec, rand.New(rand.NewSource(seed)))
		checkAgainstDense(t, fmt.Sprintf("Random seed %d", seed), topo)
	}

	addr := byte(0)
	node := func(topo *Topology) NodeID {
		addr++
		return topo.AddNode(fmt.Sprint("n", addr), flow.MakeAddr(9, 9, 9, addr), KindInternalRouter, 1)
	}
	single := New()
	node(single)
	checkAgainstDense(t, "one node", single)
	pair := New()
	pair.AddLink(node(pair), node(pair), 0, 0, 0)
	checkAgainstDense(t, "two nodes", pair)
	apart := New()
	node(apart)
	node(apart)
	checkAgainstDense(t, "two isolated nodes", apart)

	// Stars of 2, 3, 5 and 20 leaves; a ring with two shortest paths to
	// the far side; an isolated node and a lone link between them, so
	// most pairs cross components.
	mixed := New()
	for _, leaves := range []int{2, 3, 5, 20} {
		hub := node(mixed)
		for range leaves {
			mixed.AddLink(hub, node(mixed), 0, 0, 0)
		}
		node(mixed)
	}
	ring := make([]NodeID, 6)
	for i := range ring {
		ring[i] = node(mixed)
	}
	for i := range ring {
		mixed.AddLink(ring[i], ring[(i+1)%len(ring)], 0, 0, 0)
	}
	mixed.AddLink(node(mixed), node(mixed), 0, 0, 0)
	checkAgainstDense(t, "mixed components", mixed)

	// A 5-ring, the whole 2-core, each node carrying a binary tree of
	// depth 3: every core node answers for 70 tree nodes through its
	// entry toward their attachment, and tree nodes route up save
	// toward their own subtrees.
	forest := New()
	cycle := make([]NodeID, 5)
	for i := range cycle {
		cycle[i] = node(forest)
	}
	for i := range cycle {
		forest.AddLink(cycle[i], cycle[(i+1)%len(cycle)], 0, 0, 0)
		level := []NodeID{cycle[i]}
		for range 3 {
			var below []NodeID
			for _, parent := range level {
				for range 2 {
					child := node(forest)
					forest.AddLink(parent, child, 0, 0, 0)
					below = append(below, child)
				}
			}
			level = below
		}
	}
	checkAgainstDense(t, "5-ring of depth-3 trees", forest)

	// A 4-ring whose first node has a branch linked before its ring
	// links and another after them. Tree node x links to a child, then
	// up to the ring, then to two more children; so does y below x's
	// first child, so a child search skips an up port in the middle of
	// three children at either depth.
	edges := New()
	square := make([]NodeID, 4)
	for i := range square {
		square[i] = node(edges)
	}
	first := node(edges)
	edges.AddLink(square[0], first, 0, 0, 0)
	for i := range square {
		edges.AddLink(square[i], square[(i+1)%len(square)], 0, 0, 0)
	}
	edges.AddLink(first, node(edges), 0, 0, 0)
	x, y := node(edges), node(edges)
	kids := []NodeID{node(edges), node(edges), node(edges)}
	edges.AddLink(x, kids[0], 0, 0, 0)
	edges.AddLink(x, square[0], 0, 0, 0)
	edges.AddLink(x, kids[1], 0, 0, 0)
	edges.AddLink(x, kids[2], 0, 0, 0)
	edges.AddLink(kids[1], node(edges), 0, 0, 0)
	edges.AddLink(y, node(edges), 0, 0, 0)
	edges.AddLink(y, kids[0], 0, 0, 0)
	edges.AddLink(y, node(edges), 0, 0, 0)
	edges.AddLink(y, node(edges), 0, 0, 0)
	if r := edges.Routes(); r.nodes[x].up != 1 || r.nodes[y].up != 1 || r.nodes[square[0]].up != unreached {
		t.Fatal("x and y should route up through their second link, from a ring node")
	}
	checkAgainstDense(t, "ring with interleaved branches", edges)

	// A tree component whose peel ends at neither its lowest node nor its
	// hub: l1, the one leaf of the hub with a leaf of its own, is left
	// last and roots it.
	rooted := New()
	l0, l1, l2 := node(rooted), node(rooted), node(rooted)
	hub := node(rooted)
	for _, l := range []NodeID{l0, l1, l2} {
		rooted.AddLink(hub, l, 0, 0, 0)
	}
	rooted.AddLink(l1, node(rooted), 0, 0, 0)
	if r := rooted.Routes(); r.nodes[l1].up != unreached || r.nodes[l0].up == unreached {
		t.Fatal("the tree component should be rooted at l1")
	}
	checkAgainstDense(t, "tree rooted above its lowest node", rooted)
}

// routeBytes sums every slice r allocates; the adjacency it shares
// with the topology is not counted.
func routeBytes(r *Routes) int {
	return cap(r.nodes)*int(unsafe.Sizeof(route{})) + cap(r.core)*4
}

// TestRouteTableBytes pins the routes' size per node: an army is a tree
// with no 2-core, so it needs its 32-byte entries and nothing else, and
// 20,000 zombies fit in 2 MB where a dense []*Iface table would need
// 12.8 GB and the bit-packed rows before this took 95.6 MB.
func TestRouteTableBytes(t *testing.T) {
	p := DefaultParams()
	for _, zombies := range []int{500, 2000, 5000, 20000} {
		topo, n := ManyToOne(zombies, 4, p)
		r := topo.Routes()
		got, nodes := routeBytes(r), len(topo.Nodes)
		t.Logf("ManyToOne(%d, 4): %d nodes, %d route bytes", zombies, nodes, got)
		if got > 32*nodes || got > 2<<20 {
			t.Fatalf("ManyToOne(%d, 4): routes %d bytes, want at most 32 per node and 2 MB", zombies, got)
		}
		last := len(n.Attackers) - 1
		path := []NodeID{n.Attackers[last]}
		for cur := path[0]; cur != n.Victim; path = append(path, cur) {
			if cur = r.Next(cur, n.Victim); cur == NoRoute || len(path) > 5 {
				t.Fatalf("ManyToOne(%d, 4): zombie route broken at %v", zombies, path)
			}
		}
		if want := []NodeID{n.Attackers[last], n.AttackGWs[last], n.Core, n.VictimGW, n.Victim}; !slices.Equal(path, want) {
			t.Fatalf("ManyToOne(%d, 4): zombie path %v, want %v", zombies, path, want)
		}
	}
}

// TestRoutesAtScale: on an army of 5,000 zombies (10,011 nodes) seeded
// pairs route as a BFS from the destination says.
func TestRoutesAtScale(t *testing.T) {
	topo, _ := ManyToOne(5000, 4, DefaultParams())
	r := topo.Routes()
	n := len(topo.Nodes)
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		from, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if got, want := r.Next(from, dst), denseRoutes(topo, dst)[from]; got != want {
			t.Fatalf("Next(%d, %d) = %d, reference %d", from, dst, got, want)
		}
	}
}

// graphBytes encodes a graph as FuzzRoutes decodes it: the node count
// less one, then one byte pair per link.
func graphBytes(nodes int, links ...[2]byte) []byte {
	b := []byte{byte(nodes - 1)}
	for _, l := range links {
		b = append(b, l[0], l[1])
	}
	return b
}

// FuzzRoutes decodes bytes into a graph of at most 48 nodes, dropping
// self and parallel links, and requires the table to answer every pair
// as the per-destination BFS does.
func FuzzRoutes(f *testing.F) {
	f.Add(graphBytes(6, [2]byte{0, 1}, [2]byte{1, 2}, [2]byte{2, 3}, [2]byte{3, 4}, [2]byte{4, 5}))                // a path
	f.Add(graphBytes(7, [2]byte{0, 1}, [2]byte{0, 2}, [2]byte{0, 3}, [2]byte{0, 4}, [2]byte{0, 5}, [2]byte{0, 6})) // a star
	f.Add(graphBytes(9, [2]byte{0, 1}, [2]byte{1, 2}, [2]byte{2, 3}, [2]byte{3, 4}, [2]byte{4, 0},
		[2]byte{0, 5}, [2]byte{5, 6}, [2]byte{2, 7}, [2]byte{8, 3})) // a ring with tails
	f.Add(graphBytes(12, [2]byte{0, 1}, [2]byte{0, 2}, [2]byte{1, 3}, [2]byte{3, 4}, [2]byte{4, 5},
		[2]byte{4, 6}, [2]byte{5, 7}, [2]byte{5, 8}, [2]byte{7, 9}, [2]byte{6, 10}, [2]byte{2, 11})) // a depth-4 tree off another tree
	f.Add(graphBytes(2, [2]byte{0, 1}))                               // a two-node path
	f.Add(graphBytes(4, [2]byte{0, 2}, [2]byte{2, 1}, [2]byte{1, 3})) // a path whose peel ends at its lower middle node
	f.Add(graphBytes(1))                                              // an isolated node
	f.Add(graphBytes(9, [2]byte{0, 1}, [2]byte{1, 2}, [2]byte{2, 3}, [2]byte{3, 0},
		[2]byte{4, 5}, [2]byte{5, 6}, [2]byte{5, 7}, [2]byte{7, 8})) // a tree component beside a ring
	f.Add(graphBytes(15, [2]byte{0, 1}, [2]byte{1, 2}, [2]byte{2, 3}, [2]byte{3, 0},
		[2]byte{4, 5}, [2]byte{4, 0}, [2]byte{4, 6}, [2]byte{4, 7}, [2]byte{6, 8},
		[2]byte{9, 10}, [2]byte{9, 5}, [2]byte{9, 11}, [2]byte{9, 12}, [2]byte{12, 13}, [2]byte{7, 14})) // up ports between three children
	f.Add(graphBytes(7, [2]byte{0, 3}, [2]byte{0, 1}, [2]byte{1, 2}, [2]byte{2, 0},
		[2]byte{0, 4}, [2]byte{3, 5}, [2]byte{5, 6})) // a core node with two branches, one linked before its ring links
	f.Add(graphBytes(5, [2]byte{3, 0}, [2]byte{3, 1}, [2]byte{3, 2}, [2]byte{1, 4})) // a tree component rooted above its lowest node
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		n := 1 + int(b[0])%48
		topo := New()
		for i := range n {
			topo.AddNode(fmt.Sprint("n", i), flow.MakeAddr(10, 0, 0, byte(i)), KindInternalRouter, 1)
		}
		for i := 1; i+1 < len(b); i += 2 {
			a, c := NodeID(int(b[i])%n), NodeID(int(b[i+1])%n)
			if a != c && !slices.Contains(topo.Neighbors(a), c) {
				topo.AddLink(a, c, 0, 0, 0)
			}
		}
		checkAgainstDense(t, "fuzzed graph", topo)
	})
}

// BenchmarkRoutes times one build on armies of 500, 2,000, 5,000 and
// 20,000 zombies and on the largest internet the scenario generator
// draws, and one Next over seeded pairs of the 5,000-zombie army.
func BenchmarkRoutes(b *testing.B) {
	build := func(name string, topo *Topology) {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				topo.Routes()
			}
		})
	}
	p := DefaultParams()
	for _, zombies := range []int{500, 2000, 5000, 20000} {
		topo, _ := ManyToOne(zombies, 4, p)
		build(fmt.Sprintf("ManyToOne%d", zombies), topo)
	}
	spec := RandomSpec{ASes: 14, Tier1: 3, MaxHostsPerAS: 3, InternalRouterProb: 0.3, Params: p}
	topo, _ := Random(spec, rand.New(rand.NewSource(1)))
	build("Random14", topo)

	army, _ := ManyToOne(5000, 4, p)
	r := army.Routes()
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]NodeID, 4096)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(rng.Intn(len(army.Nodes))), NodeID(rng.Intn(len(army.Nodes)))}
	}
	b.Run("Next5000", func(b *testing.B) {
		i := 0
		for b.Loop() {
			pair := pairs[i%len(pairs)]
			r.Next(pair[0], pair[1])
			i++
		}
	})
}
