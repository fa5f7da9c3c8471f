package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/flow"
	"aitf/internal/packet"
)

// fwdGateway is a gateway whose only route is to a plain UDP socket the
// test reads: what the gateway forwards, and in which order.
func fwdGateway(t *testing.T, dsts ...flow.Addr) (*Gateway, *net.UDPConn) {
	t.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sinkA := flow.MakeAddr(10, 0, 2, 1)
	hops := make(map[flow.Addr]flow.Addr, len(dsts))
	for _, d := range dsts {
		hops[d] = sinkA
	}
	g, err := NewGateway(GatewayConfig{
		Node: NodeConfig{Addr: flow.MakeAddr(10, 0, 1, 1), Name: "gw", NextHop: hops,
			Book: Book{sinkA: sink.LocalAddr().String()}},
		Timers:  testTimers(),
		Default: contract.DefaultPeer(),
		Secret:  []byte("gw-secret"),
	})
	if err != nil {
		sink.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close(); sink.Close() })
	return g, sink
}

// readPackets reads want datagrams from conn and decodes them.
func readPackets(t *testing.T, conn *net.UDPConn, want int) []*packet.Packet {
	t.Helper()
	buf := make([]byte, slotSize)
	var out []*packet.Packet
	for len(out) < want {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read %d of %d forwarded datagrams: %v", len(out)+1, want, err)
		}
		p, err := packet.Unmarshal(buf[:n])
		if err != nil {
			t.Fatalf("forwarded datagram %d: %v", len(out)+1, err)
		}
		out = append(out, p)
	}
	return out
}

// expectQuiet fails if anything more arrives on conn.
func expectQuiet(t *testing.T, conn *net.UDPConn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, err := conn.Read(make([]byte, slotSize)); err == nil {
		t.Fatalf("an unexpected %d-byte datagram was forwarded", n)
	}
}

// countingSink counts data packets addressed to it.
type countingSink struct{ ok atomic.Uint64 }

func (s *countingSink) Handle(n *Node, p *packet.Packet, from flow.Addr) {
	if !p.IsControl() && p.Dst == n.Addr() {
		s.ok.Add(1)
	}
}

// TestBatchRespectsArrivalOrder hands the gateway one read batch of
// data, control, data, where the control packet is a request to filter
// that very flow. The filter must catch the datagram that arrived
// after the request and not the one that arrived before it, and the
// forwards must leave in arrival order. Then the same inline path runs
// from the socket: datagrams of a blocked pair, interleaved with clean
// ones, never reach the sink.
func TestBatchRespectsArrivalOrder(t *testing.T) {
	attackerA, victimA := flow.MakeAddr(30, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2)
	otherA := flow.MakeAddr(20, 0, 0, 1)
	g, sink := fwdGateway(t, victimA)
	tx, err := newSockBatch(g.node.conn)
	if err != nil {
		t.Fatal(err)
	}
	request := packet.NewControl(victimA, g.node.Addr(), &packet.FilterReq{
		Stage:    packet.StageToVictimGW,
		Flow:     flow.PairLabel(attackerA, victimA),
		Duration: time.Second,
		Round:    1,
		Victim:   victimA,
		Evidence: []packet.RREntry{{
			Router: g.node.Addr(),
			Nonce:  g.rec.Nonce(flow.Tuple{Src: attackerA, Dst: victimA}),
		}},
	})
	batch := []*packet.Packet{
		packet.NewData(otherA, victimA, flow.ProtoUDP, 1, 80, 100),
		packet.NewData(attackerA, victimA, flow.ProtoUDP, 2, 80, 100), // ahead of the request: forwarded
		request,
		packet.NewData(attackerA, victimA, flow.ProtoUDP, 3, 80, 100), // behind it: filtered
		packet.NewData(otherA, victimA, flow.ProtoUDP, 4, 80, 100),
	}
	g.handleBatch(g.node, batch, tx)

	got := readPackets(t, sink, 3)
	for i, wantPort := range []uint16{1, 2, 4} {
		if got[i].SrcPort != wantPort {
			t.Fatalf("forward %d is the datagram marked %d, want %d", i, got[i].SrcPort, wantPort)
		}
		if last := got[i].Path[len(got[i].Path)-1]; last.Router != g.node.Addr() {
			t.Fatalf("forward %d not stamped by the gateway: %+v", i, got[i].Path)
		}
	}
	expectQuiet(t, sink)
	if st := g.Stats(); st.FilterDrops != 1 || st.ReqReceived != 1 || st.ReqInvalid != 0 {
		t.Fatalf("drops=%d requests=%d invalid=%d, want 1, 1, 0", st.FilterDrops, st.ReqReceived, st.ReqInvalid)
	}
	if sent, _ := g.node.Counts(); sent != 3 || tx.txN != 0 {
		t.Fatalf("node counted %d sent with %d still queued, want 3 and 0", sent, tx.txN)
	}

	blockedA := flow.MakeAddr(30, 0, 0, 2)
	if err := g.DataPlane().Install(flow.PairLabel(blockedA, victimA), 0, time.Hour); err != nil {
		t.Fatal(err)
	}
	g.Run()
	raw, err := netDial(g.node.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const n = 20
	for i := 0; i < n; i++ {
		for _, src := range []flow.Addr{otherA, blockedA} {
			b, err := packet.Marshal(packet.NewData(src, victimA, flow.ProtoUDP, uint16(i), 80, 100))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitUntil(t, 5*time.Second, func() bool {
		sent, rcvd := g.node.Counts()
		return rcvd == 2*n && rcvd == g.FilterDrops.Load()-1+sent-3
	}, "the read loop did not drop or forward every datagram")
	for i, p := range readPackets(t, sink, n) {
		if p.Src != otherA {
			t.Fatalf("forward %d is from %v, want only %v", i, p.Src, otherA)
		}
	}
	expectQuiet(t, sink)
	if drops, st := g.FilterDrops.Load(), g.DataPlane().FilterStats(); drops != 1+n || st.Drops != drops {
		t.Fatalf("gateway FilterDrops %d, engine drops %d, want both %d", drops, st.Drops, 1+n)
	}
}

// TestSetBookSetHandlerUnderTraffic swaps the endpoint book and the
// handler of two live nodes while datagrams flow between them; run
// under -race, it is the check that the datagram path needs no lock.
func TestSetBookSetHandlerUnderTraffic(t *testing.T) {
	aA, bA := flow.MakeAddr(10, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2)
	a, err := NewNode(NodeConfig{Addr: aA, Name: "a", NextHop: map[flow.Addr]flow.Addr{bA: bA}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(NodeConfig{Addr: bA, Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	book := Book{aA: a.UDPAddr().String(), bA: b.UDPAddr().String()}
	a.SetBook(book)
	h1, h2 := &countingSink{}, &countingSink{}
	b.SetHandler(h1)
	b.Run()

	stop := make(chan struct{})
	var swapping sync.WaitGroup
	swapping.Add(1)
	go func() {
		defer swapping.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.SetBook(Book{aA: book[aA], bA: book[bA]})
			if i%2 == 0 {
				b.SetHandler(h2)
			} else {
				b.SetHandler(h1)
			}
		}
	}()
	const sends = 2000
	for i := 0; i < sends; i++ {
		p := packet.NewData(aA, bA, flow.ProtoUDP, uint16(i), 80, 10)
		if err := a.Originate(p); err != nil {
			t.Fatalf("send %d with the book being swapped: %v", i, err)
		}
		p.Release()
		if i%50 == 49 {
			time.Sleep(time.Millisecond) // loopback sheds bursts; pace them
		}
	}
	close(stop)
	swapping.Wait()
	// Every datagram the socket delivered reached one handler or the other.
	waitUntil(t, 5*time.Second, func() bool {
		_, rcvd := b.Counts()
		return rcvd >= sends/2 && h1.ok.Load()+h2.ok.Load() == rcvd
	}, "datagrams were lost between the read loop and the handlers")
	if sent, _ := a.Counts(); sent != sends {
		t.Fatalf("sender counted %d, want %d", sent, sends)
	}
}
