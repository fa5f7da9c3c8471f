package core

import (
	"testing"
	"time"

	"aitf/internal/border"
	"aitf/internal/dataplane"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// TestIdleGatewayForwardsUnbuilt: a gateway forwards data without
// building its tables or control state, its reads build nothing, and
// the first control message addressed to it builds them.
func TestIdleGatewayForwardsUnbuilt(t *testing.T) {
	srcAddr, gwAddr, dstAddr := flow.MakeAddr(10, 0, 0, 1), flow.MakeAddr(10, 0, 0, 254), flow.MakeAddr(10, 0, 1, 1)
	topo := topology.New()
	src := topo.AddNode("src", srcAddr, topology.KindHost, 1)
	gw := topo.AddNode("gw", gwAddr, topology.KindBorderRouter, 1)
	dst := topo.AddNode("dst", dstAddr, topology.KindHost, 2)
	topo.AddLink(src, gw, time.Millisecond, 0, 0)
	topo.AddLink(gw, dst, time.Millisecond, 0, 0)
	eng := sim.NewEngine(1)
	net := netsim.MustBuild(eng, topo)
	g := NewGateway(net.Node(gw), border.DefaultConfig(), nil)

	for i := 0; i < 10; i++ {
		net.Node(src).Originate(packet.NewData(srcAddr, dstAddr, flow.ProtoUDP, 1, 2, 100))
	}
	eng.Run()
	if s := g.Stats(); s.DataForwarded != 10 {
		t.Fatalf("forwarded %d of 10 data packets", s.DataForwarded)
	}
	if g.Filters().Len() != 0 || len(g.Snapshot().Shadows) != 0 || len(g.Snapshot().Filters) != 0 ||
		g.Cluster() != nil || g.OutstandingReliable() != 0 || g.PendingHandshakes() != 0 {
		t.Fatal("an idle gateway reads as not empty")
	}
	// Before the build the filter view is the zero view.
	if g.Filters() != (dataplane.TableView{}) {
		t.Fatal("data traffic or a read built the gateway's control state")
	}

	net.Node(src).Originate(packet.NewControl(srcAddr, gwAddr, &packet.Disconnect{}))
	eng.Run()
	if g.Filters() == (dataplane.TableView{}) || g.Stats().MsgProcessed != 1 {
		t.Fatal("the first control message did not build the gateway's control state")
	}
}
