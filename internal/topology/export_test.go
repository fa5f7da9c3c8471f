package topology

import "aitf/internal/flow"

// Fig1Nodes names the nodes of the paper's Figure 1.
type Fig1Nodes struct {
	GHost, GGw1, GGw2, GGw3 NodeID
	BHost, BGw1, BGw2, BGw3 NodeID
}

// Figure1 builds the example attack path of the paper's Figure 1:
//
//	G_host — G_gw1 — G_gw2 — G_gw3 — B_gw3 — B_gw2 — B_gw1 — B_host
//
// G_host (the victim) sits in enterprise G_net behind gateway G_gw1;
// G_gw2 is its ISP's backbone router, G_gw3 the wide-area provider's.
// B_host (the attacker) mirrors this on the other side.
func Figure1(p Params) (*Topology, Fig1Nodes) {
	t := New()
	var n Fig1Nodes
	n.GHost = t.AddNode("G_host", flow.MakeAddr(10, 1, 0, 2), KindHost, 1)
	n.GGw1 = t.AddNode("G_gw1", flow.MakeAddr(10, 1, 0, 1), KindBorderRouter, 1)
	n.GGw2 = t.AddNode("G_gw2", flow.MakeAddr(10, 2, 0, 1), KindBorderRouter, 2)
	n.GGw3 = t.AddNode("G_gw3", flow.MakeAddr(10, 3, 0, 1), KindBorderRouter, 3)
	n.BGw3 = t.AddNode("B_gw3", flow.MakeAddr(10, 6, 0, 1), KindBorderRouter, 6)
	n.BGw2 = t.AddNode("B_gw2", flow.MakeAddr(10, 5, 0, 1), KindBorderRouter, 5)
	n.BGw1 = t.AddNode("B_gw1", flow.MakeAddr(10, 4, 0, 1), KindBorderRouter, 4)
	n.BHost = t.AddNode("B_host", flow.MakeAddr(10, 4, 0, 2), KindHost, 4)

	t.AddLink(n.GHost, n.GGw1, p.AccessDelay, p.TailBandwidth, p.QueueLen)
	t.AddLink(n.GGw1, n.GGw2, p.BackboneDelay, coreBandwidth, p.QueueLen)
	t.AddLink(n.GGw2, n.GGw3, p.BackboneDelay, coreBandwidth, p.QueueLen)
	t.AddLink(n.GGw3, n.BGw3, p.BackboneDelay, coreBandwidth, p.QueueLen)
	t.AddLink(n.BGw3, n.BGw2, p.BackboneDelay, coreBandwidth, p.QueueLen)
	t.AddLink(n.BGw2, n.BGw1, p.BackboneDelay, coreBandwidth, p.QueueLen)
	t.AddLink(n.BGw1, n.BHost, p.AccessDelay, coreBandwidth, p.QueueLen)
	return t, n
}

// Next returns the neighbor of from on the shortest path toward dst, or
// NoRoute.
func (r *Routes) Next(from, dst NodeID) NodeID {
	if from == dst || r.nodes[from].comp != r.nodes[dst].comp {
		return NoRoute
	}
	return r.adj[from][r.Port(from, dst)]
}
