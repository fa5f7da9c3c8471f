package wire

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/ctrl"
	"aitf/internal/detect"
	"aitf/internal/endhost"
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
		p := packet.Get()
		if err := packet.UnmarshalInto(p, buf[:n]); err != nil {
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
		return rcvd == 2*n && rcvd == g.filterDrops.Load()-1+sent-3
	}, "the read loop did not drop or forward every datagram")
	for i, p := range readPackets(t, sink, n) {
		if p.Src != otherA {
			t.Fatalf("forward %d is from %v, want only %v", i, p.Src, otherA)
		}
	}
	expectQuiet(t, sink)
	if drops, st := g.filterDrops.Load(), g.DataPlane().FilterStats(); drops != 1+n || st.Drops != drops {
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

// peerGateway is a gateway at gwA between two plain UDP sockets the
// test reads: down, its next hop toward victimA, and up, its next hop
// toward the attacker's gateway agwA. cfg supplies everything but the
// node, the timers, the default contract and the secret.
func peerGateway(t *testing.T, cfg GatewayConfig) (g *Gateway, down, up *net.UDPConn) {
	t.Helper()
	var sinks [2]*net.UDPConn
	for i := range sinks {
		sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sink.Close() })
		sinks[i] = sink
	}
	cfg.Node = NodeConfig{Addr: gwA, Name: "gw",
		NextHop: map[flow.Addr]flow.Addr{victimA: victimA, agwA: agwA},
		Book:    Book{victimA: sinks[0].LocalAddr().String(), agwA: sinks[1].LocalAddr().String()}}
	cfg.Timers, cfg.Default, cfg.Secret = testTimers(), contract.DefaultPeer(), []byte("gw-secret")
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, sinks[0], sinks[1]
}

// The addresses of peerGateway's neighbourhood.
var (
	gwA     = flow.MakeAddr(10, 0, 1, 1)
	victimA = flow.MakeAddr(10, 0, 0, 2)
	agwA    = flow.MakeAddr(10, 9, 0, 1)
)

// checkCounters fails unless n's class counters add up to Sent and
// equal ctrl and data.
func checkCounters(t *testing.T, n *Node, ctrl, data uint64) {
	t.Helper()
	if s, c, d := n.Sent.Load(), n.CtrlSent.Load(), n.DataSent.Load(); s != c+d || c != ctrl || d != data {
		t.Fatalf("Sent %d, CtrlSent %d, DataSent %d, want %d control and %d data", s, c, d, ctrl, data)
	}
}

// TestControlSendsShareTheFlush checks that what handling a read batch
// sends, control messages as well as forwards, is queued on the batch
// and leaves with its one flush, in handling order, through a
// mid-batch flush when the queue fills, and that a send from a timer,
// which has no batch, still leaves at once.
func TestControlSendsShareTheFlush(t *testing.T) {
	attackerA, otherA := flow.MakeAddr(30, 0, 0, 1), flow.MakeAddr(20, 0, 0, 1)
	label := flow.PairLabel(attackerA, victimA)

	t.Run("gateway", func(t *testing.T) {
		g, down, up := peerGateway(t, GatewayConfig{})
		tx, err := newSockBatch(g.node.conn)
		if err != nil {
			t.Fatal(err)
		}
		request := packet.NewControl(victimA, gwA, &packet.FilterReq{
			Stage:    packet.StageToVictimGW,
			Flow:     label,
			Duration: time.Second,
			Round:    1,
			Victim:   victimA,
			Evidence: []packet.RREntry{{Router: agwA, Nonce: 7},
				{Router: gwA, Nonce: g.rec.Nonce(flow.Tuple{Src: attackerA, Dst: victimA})}},
		})
		batch := []*packet.Packet{
			packet.NewData(otherA, victimA, flow.ProtoUDP, 1, 80, 100),
			request, // relayed up
			packet.NewControl(agwA, victimA, &packet.VerifyQuery{Flow: label, Nonce: 42}), // in transit down
			packet.NewControl(agwA, victimA, &packet.VerifyQuery{Flow: label, Nonce: 43}),
			packet.NewData(otherA, victimA, flow.ProtoUDP, 2, 80, 100),
		}
		msgs0 := g.node.SendMsgs.Load()
		g.handleBatch(g.node, batch, tx)
		if tx.txN != 0 || g.tx != nil {
			t.Fatalf("after handleBatch: %d datagrams queued, g.tx %p, want 0 and nil", tx.txN, g.tx)
		}
		got := readPackets(t, down, 4)
		if got[0].SrcPort != 1 || got[3].SrcPort != 2 {
			t.Fatalf("toward the victim: data ports %d, %d, want 1, 2", got[0].SrcPort, got[3].SrcPort)
		}
		for i, nonce := range []uint64{42, 43} {
			if q, ok := got[1+i].Msg.(*packet.VerifyQuery); !ok || q.Nonce != nonce {
				t.Fatalf("toward the victim, datagram %d: %+v, want the query %d in transit", 2+i, got[1+i], nonce)
			}
		}
		relay, ok := readPackets(t, up, 1)[0].Msg.(*packet.FilterReq)
		if !ok || relay.Stage != packet.StageToAttackerGW || relay.Flow != label {
			t.Fatalf("toward the attacker's gateway: %+v, want the relayed request", relay)
		}
		expectQuiet(t, down)
		expectQuiet(t, up)
		checkCounters(t, g.node, 3, 2)
		// The two queries sit side by side in the one flush: one message
		// where the socket segments.
		want := uint64(5)
		if tx.sys.gso {
			want = 4
		}
		if msgs := g.node.SendMsgs.Load() - msgs0; msgs != want {
			t.Fatalf("the batch's sends took %d kernel messages, want %d", msgs, want)
		}
	})

	t.Run("host", func(t *testing.T) {
		sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		tm := testTimers()
		tm.T = time.Hour
		h, err := NewHost(HostConfig{
			Node: NodeConfig{Addr: victimA, Name: "victim", NextHop: map[flow.Addr]flow.Addr{agwA: gwA},
				Book: Book{gwA: sink.LocalAddr().String()}},
			Gateway:   gwA,
			Timers:    tm,
			DetectBps: 1, // the first datagram of any source is an attack
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		tx, err := newSockBatch(h.node.conn)
		if err != nil {
			t.Fatal(err)
		}
		const k = 8
		pkts := make([]*packet.Packet, k)
		var requests endhost.Out // the victim asks to block each source; the test drops the requests
		for i := range pkts {
			src := flow.MakeAddr(30, 0, 0, byte(i+1))
			l := flow.PairLabel(src, victimA)
			h.eng.Data(wallNow(), packet.NewData(src, victimA, flow.ProtoUDP, 4000, 80, 100), &requests)
			pkts[i] = packet.NewControl(agwA, victimA, &packet.VerifyQuery{Flow: l, Nonce: uint64(100 + i)})
		}
		msgs0 := h.node.SendMsgs.Load()
		h.handleBatch(h.node, pkts, tx)
		for i, p := range readPackets(t, sink, k) {
			if r, ok := p.Msg.(*packet.VerifyReply); !ok || r.Nonce != uint64(100+i) || p.Dst != agwA {
				t.Fatalf("reply %d: %+v to %v, want nonce %d to %v", i, p.Msg, p.Dst, 100+i, agwA)
			}
		}
		expectQuiet(t, sink)
		// k replies of one size to one hop: one message where the socket
		// segments.
		want := uint64(k)
		if tx.sys.gso {
			want = 1
		}
		if msgs := h.node.SendMsgs.Load() - msgs0; msgs != want || tx.txN != 0 {
			t.Fatalf("%d replies took %d kernel messages with %d still queued, want %d and 0", k, msgs, tx.txN, want)
		}
		checkCounters(t, h.node, k, 0)
	})

	t.Run("selfDetect", func(t *testing.T) {
		g, down, _ := peerGateway(t, GatewayConfig{
			Detect:    detect.Config{ThresholdBps: 1, Window: time.Second}, // the first datagram is an attack
			DetectFor: []flow.Addr{victimA},
		})
		// Both next hops are one socket, which sees the sends' order.
		g.node.SetBook(Book{victimA: down.LocalAddr().String(), agwA: down.LocalAddr().String()})
		tx, err := newSockBatch(g.node.conn)
		if err != nil {
			t.Fatal(err)
		}
		// Each datagram queues its relay, then its forward: 64 sends
		// from a batch of 32, so the queue fills and flushes halfway.
		pkts := make([]*packet.Packet, batchSlots)
		for i := range pkts {
			pkts[i] = packet.NewData(flow.MakeAddr(30, 0, 1, byte(i+1)), victimA, flow.ProtoUDP, uint16(i), 80, 1000)
			pkts[i].RecordRoute(agwA, uint64(i))
		}
		g.handleBatch(g.node, pkts, tx)
		got := readPackets(t, down, 2*batchSlots)
		for i := 0; i < batchSlots; i++ {
			if r, ok := got[2*i].Msg.(*packet.FilterReq); !ok || r.Flow.Src != flow.MakeAddr(30, 0, 1, byte(i+1)) {
				t.Fatalf("send %d: %+v, want the relay for source %d", 2*i, got[2*i].Msg, i+1)
			}
			if p := got[2*i+1]; p.IsControl() || p.SrcPort != uint16(i) {
				t.Fatalf("send %d: %+v, want the forward of datagram %d", 2*i+1, p, i)
			}
		}
		expectQuiet(t, down)
		if st := g.Stats(); st.Detections != batchSlots || tx.txN != 0 || g.tx != nil {
			t.Fatalf("%d detections, %d queued, g.tx %p, want %d, 0, nil", st.Detections, tx.txN, g.tx, batchSlots)
		}
		checkCounters(t, g.node, batchSlots, batchSlots)
	})

	t.Run("timer", func(t *testing.T) {
		g, down, _ := peerGateway(t, GatewayConfig{
			Control:          ctrl.Config{MaxAttempts: 3, RTO: 20 * time.Millisecond},
			HandshakeTimeout: 10 * time.Second,
		})
		tx, err := newSockBatch(g.node.conn)
		if err != nil {
			t.Fatal(err)
		}
		request := packet.NewControl(victimA, gwA, &packet.FilterReq{
			Stage:    packet.StageToAttackerGW,
			Flow:     label,
			Duration: time.Second,
			Round:    1,
			Victim:   victimA,
			Evidence: []packet.RREntry{{Router: gwA, Nonce: g.rec.Nonce(flow.Tuple{Src: attackerA, Dst: victimA})}},
		})
		g.handleBatch(g.node, []*packet.Packet{request}, tx)
		checkCounters(t, g.node, 1, 0)
		// The read loop is not running: the two retransmissions can only
		// leave by themselves, from the ladder's timers.
		waitUntil(t, 2*time.Second, func() bool { return g.node.CtrlSent.Load() == 3 },
			"the ladder's retransmissions were not sent")
		for i, p := range readPackets(t, down, 3) {
			if q, ok := p.Msg.(*packet.VerifyQuery); !ok || q.Flow != label {
				t.Fatalf("attempt %d: %+v, want the handshake query", i+1, p.Msg)
			}
		}
		checkCounters(t, g.node, 3, 0)
	})
}

// TestSendCountersSplitByClass queues mixes of data and control packets
// of several sizes on a batch, more than one queue's worth at a time,
// and checks after every flush that the class counters add up to Sent
// and match what the peer received of each class, also when one
// datagram of a flush is refused by the kernel.
func TestSendCountersSplitByClass(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sinkA, badA := flow.MakeAddr(10, 0, 2, 1), flow.MakeAddr(10, 0, 2, 2)
	n, err := NewNode(NodeConfig{Addr: gwA, Name: "tx",
		// Port 0 is no destination: the kernel refuses the send (EINVAL).
		Book: Book{sinkA: sink.LocalAddr().String(), badA: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	tx, err := newSockBatch(n.conn)
	if err != nil {
		t.Fatal(err)
	}
	label := flow.PairLabel(flow.MakeAddr(30, 0, 0, 1), victimA)
	build := func(kind int, seq uint16) *packet.Packet {
		switch kind {
		case 0:
			return packet.NewData(flow.MakeAddr(20, 0, 0, 1), victimA, flow.ProtoUDP, seq, 80, 100)
		case 1:
			return packet.NewControl(agwA, victimA, &packet.VerifyReply{Flow: label, Nonce: uint64(seq)})
		default:
			return packet.NewControl(victimA, agwA, &packet.FilterReq{Stage: packet.StageToAttackerGW, Flow: label,
				Duration: time.Second, Victim: victimA, Txid: uint64(seq),
				Evidence: make([]packet.RREntry, 1+int(seq)%packet.MaxEvidenceLen)})
		}
	}
	var nCtrl, nData uint64
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		// Up to one and a half queues' worth, and every tenth flush
		// with one datagram to badA.
		k := 1 + rng.Intn(batchSlots+batchSlots/2)
		bad := -1
		if round%10 == 9 {
			bad = rng.Intn(k)
		}
		var want []*packet.Packet
		var refused int
		for j := 0; j < k; j++ {
			p := build(rng.Intn(3), uint16(round*100+j))
			to := sinkA
			if j == bad {
				to = badA
			} else {
				want = append(want, p)
			}
			// A send that finds the queue full flushes it first, and
			// reports that flush's refusal.
			if err := n.sendTo(to, p, tx); err != nil {
				refused++
			}
		}
		if err := n.flush(tx); err != nil {
			refused++
		}
		wantRefused := 0
		if bad >= 0 {
			wantRefused = 1
		}
		if refused != wantRefused {
			t.Fatalf("round %d: %d sends or flushes failed, want %d", round, refused, wantRefused)
		}
		for i, p := range readPackets(t, sink, len(want)) {
			w := want[i]
			if p.IsControl() != w.IsControl() || p.SrcPort != w.SrcPort || p.Dst != w.Dst {
				t.Fatalf("round %d, datagram %d: %+v, want %+v", round, i, p, w)
			}
			if p.IsControl() {
				nCtrl++
			} else {
				nData++
			}
		}
		checkCounters(t, n, nCtrl, nData)
	}
	expectQuiet(t, sink)
}

// FuzzCoalescedSplit checks how the read loop splits a message into its
// datagrams, for any length, segment size (from the UDP_GRO control
// message, so any int) and cut flag: the whole datagrams tile the
// message from its start and a cut one's tail the rest, each datagram
// is the segment size but an uncut message's last, none is empty but an
// empty message's one, and none leaves the slot.
func FuzzCoalescedSplit(f *testing.F) {
	f.Add(uint16(1000), int32(100), false)
	f.Add(uint16(1995), int32(105), false)
	f.Add(uint16(slotSize), int32(105), true) // a cut coalesced message
	f.Add(uint16(slotSize), int32(128), true) // cut at a datagram's end
	f.Add(uint16(0), int32(0), false)         // an empty datagram
	f.Add(uint16(60), int32(0), false)
	f.Add(uint16(slotSize+1), int32(0), false) // longer than a slot (the portable read)
	f.Add(uint16(50), int32(-1), false)
	f.Add(uint16(50), int32(math.MaxInt32), true)
	f.Add(uint16(math.MaxUint16), int32(1), false)
	f.Fuzz(func(t *testing.T, length uint16, seg int32, trunc bool) {
		m := rxMsg{n: int(length), seg: int(seg), trunc: trunc}
		n, cut := min(m.n, slotSize), trunc || m.n > slotSize
		k, gotCut := m.split()
		if gotCut != cut {
			t.Fatalf("%+v: cut %v, want %v", m, gotCut, cut)
		}
		if k < 0 || !cut && k < 1 || k > max(n, 1) {
			t.Fatalf("%+v: %d datagrams", m, k)
		}
		slot := make([]byte, slotSize)
		end := 0
		for j := 0; j < k; j++ {
			lo, hi := m.datagram(j)
			if lo != end || hi < lo || hi > n {
				t.Fatalf("%+v: datagram %d is [%d, %d) after one ending at %d, in %d bytes", m, j, lo, hi, end, n)
			}
			_ = slot[lo:hi]
			if last := j == k-1 && !cut; seg > 0 && hi-lo != int(seg) && !last {
				t.Fatalf("%+v: datagram %d is %d bytes, not the segment size", m, j, hi-lo)
			}
			if hi == lo && n > 0 {
				t.Fatalf("%+v: datagram %d is empty", m, j)
			}
			end = hi
		}
		switch {
		case !cut && end != n:
			t.Fatalf("%+v: the datagrams end at %d, short of %d", m, end, n)
		case cut && seg <= 0 && k != 0:
			t.Fatalf("%+v: a cut datagram yields %d", m, k)
		case cut && seg > 0 && n-end >= int(seg):
			t.Fatalf("%+v: a whole datagram is left in the cut tail [%d, %d)", m, end, n)
		}
	})
}
