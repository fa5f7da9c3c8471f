//go:build !race

package wire

import (
	"testing"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

// TestDatagramPathZeroAlloc pins the claim the README makes: from a
// received datagram's bytes, through the decode into a pooled packet,
// the classification, the route-record stamp and the encode, to the
// socket write, the gateway's data path allocates nothing — one packet
// at a time through Handle, and a full read batch through handleBatch
// and one flush. (The race detector makes sync.Pool drop items at
// random, so this file is built without it.)
func TestDatagramPathZeroAlloc(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 2)
	g, _ := fwdGateway(t, dst)
	for i := 0; i < 64; i++ {
		src := flow.MakeAddr(30, 0, byte(i), 1)
		if err := g.dp.Install(flow.PairLabel(src, flow.MakeAddr(10, 9, 9, 9)), 0, testTimers().T); err != nil {
			t.Fatal(err)
		}
	}
	var wires [batchSlots][]byte
	for i := range wires {
		p := packet.NewData(flow.MakeAddr(20, 0, 0, byte(i+1)), dst, flow.ProtoUDP, 7, 80, 1000)
		p.RecordRoute(flow.MakeAddr(10, 0, 0, 3), uint64(i))
		b, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = b
	}
	decode := func(i int) *packet.Packet {
		p := packet.Get()
		if err := packet.UnmarshalInto(p, wires[i]); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if n := testing.AllocsPerRun(200, func() {
		g.Handle(g.node, decode(0), 0)
	}); n != 0 {
		t.Errorf("datagram -> Handle -> socket write allocates %v/op, want 0", n)
	}

	tx, err := newSockBatch(g.node.conn)
	if err != nil {
		t.Fatal(err)
	}
	var pkts [batchSlots]*packet.Packet
	if n := testing.AllocsPerRun(200, func() {
		for i := range pkts {
			pkts[i] = decode(i)
		}
		g.handleBatch(g.node, pkts[:], tx)
	}); n != 0 {
		t.Errorf("batch of %d datagrams -> handleBatch -> flush allocates %v/op, want 0", batchSlots, n)
	}
	if sent, _ := g.node.Counts(); sent != 201*(1+batchSlots) {
		t.Fatalf("gateway counted %d datagrams sent, want %d", sent, 201*(1+batchSlots))
	}
}
