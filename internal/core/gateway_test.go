package core

import (
	"testing"
	"time"

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
	g := NewGateway(net.Node(gw), DefaultGatewayConfig(), nil)

	for i := 0; i < 10; i++ {
		net.Node(src).Originate(packet.NewData(srcAddr, dstAddr, flow.ProtoUDP, 1, 2, 100))
	}
	eng.Run()
	if s := g.Stats(); s.DataForwarded != 10 {
		t.Fatalf("forwarded %d of 10 data packets", s.DataForwarded)
	}
	if g.Filters().Len() != 0 || g.Shadows().Len() != 0 || len(g.Snapshot().Filters) != 0 ||
		g.Detector() != nil || g.Cluster() != nil || g.OutstandingReliable() != 0 || g.PendingHandshakes() != 0 {
		t.Fatal("an idle gateway reads as not empty")
	}
	if g.eng.Built() {
		t.Fatal("data traffic or a read built the gateway's control state")
	}

	net.Node(src).Originate(packet.NewControl(srcAddr, gwAddr, &packet.Disconnect{}))
	eng.Run()
	if !g.eng.Built() || g.Stats().MsgProcessed != 1 {
		t.Fatal("the first control message did not build the gateway's control state")
	}
}
