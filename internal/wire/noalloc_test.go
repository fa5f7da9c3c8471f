//go:build !race

package wire

import (
	"sync"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// TestDatagramPathZeroAlloc pins the claim the README makes: from a
// received datagram's bytes, through the decode into a pooled packet,
// the classification, the route-record stamp and the encode, to the
// socket write, the gateway's data path allocates nothing — one packet
// at a time through Handle; a full read batch through handleBatch and
// one flush, which coalesces the batch into one kernel message where
// the socket segments; and from the socket, a peer's coalesced run
// taken by one read, split into its datagrams, handled and flushed.
// (The race detector makes sync.Pool drop items at random, so this file
// is built without it.)
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
	msgs0 := g.node.SendMsgs.Load()
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
	// The batch is one destination at one size: where the socket
	// segments, each flush is one kernel message.
	if msgs := g.node.SendMsgs.Load() - msgs0; tx.sys.gso && msgs != 201 {
		t.Fatalf("201 batches of %d same-size datagrams to one sink took %d kernel messages, want 201", batchSlots, msgs)
	}

	// A peer flushes two full batches to the gateway's socket, where the
	// sockets offload as two coalesced messages; the gateway's read loop
	// takes both with one read, splits them, and hands the datagrams to
	// handleBatch a batch at a time.
	peer, err := NewNode(NodeConfig{Addr: flow.MakeAddr(10, 0, 0, 3), Name: "peer"})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ptx, err := newSockBatch(peer.conn)
	if err != nil {
		t.Fatal(err)
	}
	gwTo := g.node.UDPAddr().AddrPort()
	var rx []*packet.Packet
	// A read that finds nothing to split fails the test, not hangs it.
	g.node.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rcvd0, msgs0 := g.node.Received.Load(), g.node.RecvMsgs.Load()
	if n := testing.AllocsPerRun(200, func() {
		for range 2 {
			for i := range wires {
				p := decode(i)
				if err := ptx.queue(p, gwTo); err != nil {
					t.Fatal(err)
				}
				p.Release()
			}
			if err := peer.flush(ptx); err != nil {
				t.Fatal(err)
			}
		}
		for want := g.node.Received.Load() + 2*batchSlots; g.node.Received.Load() < want; {
			if rx, err = g.node.receive(tx, rx); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("coalesced read of 2×%d datagrams -> split -> handleBatch -> flush allocates %v/op, want 0", batchSlots, n)
	}
	if rcvd := g.node.Received.Load() - rcvd0; rcvd != 201*2*batchSlots {
		t.Fatalf("gateway read %d datagrams, want %d", rcvd, 201*2*batchSlots)
	}
	if msgs := g.node.RecvMsgs.Load() - msgs0; ptx.sys.gso && tx.sys.gro && msgs != 201*2 {
		t.Fatalf("201×2 coalesced runs of %d datagrams took %d kernel receives, want %d", batchSlots, msgs, 201*2)
	}
}

// TestClockArmZeroAlloc: once a gateway clock's queue has held as many
// timers as are armed at once, arming and stopping one allocates
// nothing: no runtime timer, closure, map entry or goroutine per arm.
// Each cycle arms 100,000 timers on one callback bound beforehand,
// stops them all, and lets the cancelled ones leave the queue.
func TestClockArmZeroAlloc(t *testing.T) {
	var mu sync.Mutex
	c := newClock(&mu)
	defer c.Close()
	const n = 100_000
	ts := make([]sim.Timer, n)
	fn := func() { t.Error("a stopped timer fired") }
	cycle := func() {
		mu.Lock()
		for i := range ts {
			ts[i] = c.Arm(time.Second+time.Duration(i)*time.Microsecond, fn)
		}
		for _, tm := range ts {
			c.Stop(tm)
		}
		if _, ok := c.q.Next(); ok { // drops the cancelled timers, freeing their slots
			t.Error("a stopped timer is still pending")
		}
		mu.Unlock()
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("arming and stopping %d timers allocates %v times at steady state, want 0", n, allocs)
	}
}
