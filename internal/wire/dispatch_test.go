package wire

import (
	"sync/atomic"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

// countingSink counts data packets addressed to it, by source.
type countingSink struct{ ok, blocked atomic.Uint64 }

func (s *countingSink) Handle(n *Node, p *packet.Packet, from flow.Addr) {
	if p.IsControl() || p.Dst != n.Addr() {
		return
	}
	if p.Src == flow.MakeAddr(10, 0, 0, 2) {
		s.blocked.Add(1)
	} else {
		s.ok.Add(1)
	}
}

// TestGatewayWorkerPool drives the wire gateway's dispatch mode: data
// packets are classified and forwarded by a worker pool, with installed
// filters dropping one of two flows.
func TestGatewayWorkerPool(t *testing.T) {
	senderA := flow.MakeAddr(10, 0, 0, 1)
	blockedA := flow.MakeAddr(10, 0, 0, 2)
	gwA := flow.MakeAddr(10, 0, 1, 1)
	sinkA := flow.MakeAddr(10, 0, 2, 1)

	gw, err := NewGateway(GatewayConfig{
		Node: NodeConfig{Addr: gwA, Name: "gw", NextHop: map[flow.Addr]flow.Addr{
			sinkA: sinkA, senderA: senderA, blockedA: blockedA,
		}},
		Workers:         4,
		DataplaneShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sinkNode, err := NewNode(NodeConfig{Addr: sinkA, Name: "sink"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	sinkNode.SetHandler(sink)
	senderNode, err := NewNode(NodeConfig{Addr: senderA, Name: "sender",
		NextHop: map[flow.Addr]flow.Addr{sinkA: gwA}})
	if err != nil {
		t.Fatal(err)
	}

	book := Book{
		gwA:     gw.Node().UDPAddr().String(),
		sinkA:   sinkNode.UDPAddr().String(),
		senderA: senderNode.UDPAddr().String(),
	}
	gw.Node().SetBook(book)
	sinkNode.SetBook(book)
	senderNode.SetBook(book)
	t.Cleanup(func() { gw.Close(); sinkNode.Close(); senderNode.Close() })
	gw.Run()
	sinkNode.Run()
	senderNode.Run()

	// Block one source pair at the gateway's data plane.
	if err := gw.DataPlane().Install(flow.PairLabel(blockedA, sinkA), 0, time.Hour); err != nil {
		t.Fatal(err)
	}

	// UDP gives no delivery guarantee (kernel buffers can shed bursts,
	// especially under the race detector), so pace the sends and assert
	// invariants rather than exact delivery counts.
	const n = 200
	for i := 0; i < n; i++ {
		ok := packet.NewData(senderA, sinkA, flow.ProtoUDP, uint16(i), 80, 100)
		if err := senderNode.Originate(ok); err != nil {
			t.Fatal(err)
		}
		// Spoof the blocked source through the same socket: the gateway
		// must drop these via the installed pair filter.
		bad := packet.NewData(blockedA, sinkA, flow.ProtoUDP, uint16(i), 80, 100)
		if err := senderNode.SendTo(gwA, bad); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			time.Sleep(time.Millisecond)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sink.ok.Load() >= n/2 && gw.FilterDrops.Load() >= n/2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sink.ok.Load(); got < n/2 {
		t.Fatalf("sink received %d packets, want >= %d", got, n/2)
	}
	// The filter must be absolute: not one blocked-source packet may
	// reach the sink, however many datagrams the kernel delivered.
	if leaked := sink.blocked.Load(); leaked != 0 {
		t.Fatalf("%d blocked packets leaked through the worker pool", leaked)
	}
	// Let the pool quiesce (no new drops for a settle window) before
	// comparing the two counters exactly.
	drops := gw.FilterDrops.Load()
	for settle := 0; settle < 100; settle++ {
		time.Sleep(20 * time.Millisecond)
		cur := gw.FilterDrops.Load()
		if cur == drops {
			break
		}
		drops = cur
	}
	if drops < n/2 {
		t.Fatalf("FilterDrops = %d, want >= %d", drops, n/2)
	}
	// Gateway counter and engine accounting must agree exactly.
	if st := gw.DataPlane().FilterStats(); st.Drops != drops {
		t.Fatalf("engine drops %d != gateway FilterDrops %d", st.Drops, drops)
	}
	if d := gw.disp; d.Dropped() != 0 {
		t.Fatalf("dispatcher shed %d packets with an idle queue", d.Dropped())
	}
}
