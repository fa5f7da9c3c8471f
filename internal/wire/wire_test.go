package wire

import (
	"log/slog"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/contract"
	"aitf/internal/ctrl"
	"aitf/internal/detect"
	"aitf/internal/endhost"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// netDial opens a plain UDP socket toward addr (for garbage injection).
func netDial(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, ua)
}

// testTimers are sub-second so a full round completes within the test.
func testTimers() contract.Timers {
	return contract.Timers{
		T:       2 * time.Second,
		Ttmp:    500 * time.Millisecond,
		Grace:   100 * time.Millisecond,
		Penalty: 2 * time.Second,
	}
}

// rig is a live four-node deployment over UDP loopback:
//
//	victim — v_gw — a_gw — attacker
type rig struct {
	victim, attacker *Host
	vgw, agw         *Gateway
}

func (r *rig) close() {
	r.victim.Close()
	r.attacker.Close()
	r.vgw.Close()
	r.agw.Close()
}

func buildRig(t *testing.T, attackerCompliant bool) *rig {
	t.Helper()
	return buildRigCtrl(t, attackerCompliant, ctrl.Config{}, nil)
}

// buildRigCtrl is buildRig with the gateways' control-plane
// retransmission configured and their events recorded into tr (nil
// records nothing).
func buildRigCtrl(t *testing.T, attackerCompliant bool, cc ctrl.Config, tr *obs.Trace) *rig {
	t.Helper()
	var (
		victimA   = flow.MakeAddr(10, 0, 0, 2)
		vgwA      = flow.MakeAddr(10, 0, 0, 1)
		agwA      = flow.MakeAddr(10, 9, 0, 1)
		attackerA = flow.MakeAddr(10, 9, 0, 2)
	)
	tm := testTimers()
	client := contract.DefaultEndHost()

	routes := func(self flow.Addr) map[flow.Addr]flow.Addr {
		// Chain routing: next hop toward each destination.
		chain := []flow.Addr{victimA, vgwA, agwA, attackerA}
		pos := -1
		for i, a := range chain {
			if a == self {
				pos = i
			}
		}
		nh := make(map[flow.Addr]flow.Addr)
		for i, a := range chain {
			if a == self {
				continue
			}
			if i < pos {
				nh[a] = chain[pos-1]
			} else {
				nh[a] = chain[pos+1]
			}
		}
		return nh
	}

	vgw, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: vgwA, Name: "v_gw", NextHop: routes(vgwA)},
		Timers:  tm,
		Clients: map[flow.Addr]contract.Contract{victimA: client},
		Default: contract.DefaultPeer(),
		Secret:  []byte("vgw-secret"),
		Control: cc,
		Trace:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	agw, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: agwA, Name: "a_gw", NextHop: routes(agwA)},
		Timers:  tm,
		Clients: map[flow.Addr]contract.Contract{attackerA: client},
		Default: contract.DefaultPeer(),
		Secret:  []byte("agw-secret"),
		Control: cc,
		Trace:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewHost(HostConfig{
		Node:         NodeConfig{Addr: victimA, Name: "victim", NextHop: routes(victimA)},
		Gateway:      vgwA,
		Timers:       tm,
		DetectBps:    20_000,
		DetectWindow: 100 * time.Millisecond,
		Compliant:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := NewHost(HostConfig{
		Node:      NodeConfig{Addr: attackerA, Name: "attacker", NextHop: routes(attackerA)},
		Gateway:   agwA,
		Timers:    tm,
		Compliant: attackerCompliant,
	})
	if err != nil {
		t.Fatal(err)
	}

	book := Book{
		victimA:   victim.Node().UDPAddr().String(),
		vgwA:      vgw.Node().UDPAddr().String(),
		agwA:      agw.Node().UDPAddr().String(),
		attackerA: attacker.Node().UDPAddr().String(),
	}
	victim.Node().SetBook(book)
	attacker.Node().SetBook(book)
	vgw.Node().SetBook(book)
	agw.Node().SetBook(book)

	victim.Run()
	attacker.Run()
	vgw.Run()
	agw.Run()
	r := &rig{victim: victim, attacker: attacker, vgw: vgw, agw: agw}
	t.Cleanup(r.close)
	return r
}

// waitUntil polls cond every 10 ms up to timeout.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestLiveRoundOverUDP(t *testing.T) {
	r := buildRig(t, true)
	victimAddr := r.victim.Node().Addr()

	// Attacker floods ~100 KB/s until the protocol stops it.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.attacker.SendData(victimAddr, flow.ProtoUDP, 4000, 80, 500)
			}
		}
	}()

	// The full AITF round must complete: detection, temp filter at
	// v_gw, handshake, T filter at a_gw, stop order, compliance.
	waitUntil(t, 5*time.Second, func() bool {
		return r.victim.Stats().RequestsSent > 0
	}, "victim never sent a filtering request")

	waitUntil(t, 5*time.Second, func() bool {
		return r.agw.Stats().HandshakesOK > 0
	}, "handshake never completed at the attacker's gateway")

	waitUntil(t, 5*time.Second, func() bool {
		return r.attacker.Stats().StopOrders > 0
	}, "attacker never received a stop order")

	waitUntil(t, 5*time.Second, func() bool {
		return r.attacker.Stats().StoppedSends > 0
	}, "compliant attacker never suppressed sends")

	if got := r.agw.Filters().Len(); got == 0 {
		t.Fatal("attacker gateway holds no filter after the round")
	}
}

// TestHostStopOrderShapes: a compliant wire host matches stop orders by
// the same rule as the simulator's host. An order on its source /24
// toward one victim and a pair order toward another each suppress the
// host's sends to that victim; a send no live order covers is not
// suppressed, whatever its route, and neither is one under an order
// that has expired.
func TestHostStopOrderShapes(t *testing.T) {
	hostA, gwA := flow.MakeAddr(10, 2, 0, 2), flow.MakeAddr(10, 2, 0, 1)
	h, err := NewHost(HostConfig{Node: NodeConfig{Addr: hostA, Name: "h"}, Gateway: gwA, Compliant: true})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	order := func(label flow.Label, d time.Duration) {
		h.Handle(h.Node(), packet.NewControl(gwA, hostA, &packet.FilterReq{
			Stage: packet.StageToAttacker, Flow: label, Duration: d}), gwA)
	}
	prefixVictim, pairVictim, expiredVictim := flow.MakeAddr(10, 1, 0, 2), flow.MakeAddr(10, 1, 0, 3), flow.MakeAddr(10, 1, 0, 4)
	order(flow.SrcPrefixLabel(hostA, 24, prefixVictim), time.Minute)
	order(flow.PairLabel(hostA, pairVictim), time.Minute)
	order(flow.PairLabel(hostA, expiredVictim), time.Nanosecond)

	for _, c := range []struct {
		dst        flow.Addr
		suppressed bool
	}{{prefixVictim, true}, {pairVictim, true}, {expiredVictim, false}, {flow.MakeAddr(10, 1, 0, 5), false}} {
		before := h.Stats().StoppedSends
		sent := h.SendData(c.dst, flow.ProtoUDP, 4000, 80, 100)
		if got := h.Stats().StoppedSends > before; got != c.suppressed || sent && got {
			t.Errorf("send to %v: suppressed=%v sent=%v, want suppressed=%v", c.dst, got, sent, c.suppressed)
		}
	}
}

// TestHostDetectorContract pins the victim host's detector, driven
// through Handle with no gateway behind it: a source under the
// threshold files nothing, one over it files exactly one request and
// one attack-detected event, a packet of that flow arriving past
// endhost.DefaultReRequestGap while the request is live files a
// re-request, a packet after the request's T lapses is the detector's
// again (which flagged the flow once and files nothing more), and a
// thousand distinct sources each under the threshold file nothing.
func TestHostDetectorContract(t *testing.T) {
	hostA, gwA := flow.MakeAddr(10, 3, 0, 2), flow.MakeAddr(10, 3, 0, 1)
	ring := obs.NewRing(64)
	tm := testTimers()
	tm.T = 300 * time.Millisecond
	h, err := NewHost(HostConfig{
		Node:         NodeConfig{Addr: hostA, Name: "h"},
		Gateway:      gwA,
		Timers:       tm,
		DetectBps:    10_000, // 10 kB per one-second window
		DetectWindow: time.Second,
		Trace:        obs.NewTrace(ring, slog.New(slog.DiscardHandler)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	send := func(src flow.Addr, n, payload int) {
		for i := 0; i < n; i++ {
			h.Handle(h.Node(), packet.NewData(src, hostA, flow.ProtoUDP, 4000, 80, payload), src)
		}
	}
	check := func(step string, requests, detections int) {
		t.Helper()
		got := 0
		for _, e := range ring.Snapshot() {
			if e.Kind == obs.EvAttackDetected.String() {
				got++
			}
		}
		if n := h.Stats().RequestsSent; n != uint64(requests) || got != detections {
			t.Fatalf("%s: %d requests and %d attack-detected events, want %d and %d", step, n, got, requests, detections)
		}
	}

	send(flow.MakeAddr(20, 0, 0, 1), 5, 1000)
	check("under threshold", 0, 0)
	attacker := flow.MakeAddr(20, 0, 0, 2)
	send(attacker, 20, 1000)
	check("over threshold", 1, 1)
	// The burst may already have re-requested on a slow machine; count
	// from here.
	re := h.Stats().ReRequestsSent
	time.Sleep(2 * endhost.DefaultReRequestGap)
	send(attacker, 1, 100)
	check("live request past the re-request gap", 1, 1)
	if got := h.Stats().ReRequestsSent; got != re+1 {
		t.Fatalf("live request past the re-request gap: %d re-requests, want %d", got, re+1)
	}
	time.Sleep(tm.T + 50*time.Millisecond)
	send(attacker, 1, 100)
	check("after the request lapsed", 1, 1)
	if got := h.Stats().ReRequestsSent; got != re+1 {
		t.Fatalf("after the request lapsed: %d re-requests, want %d", got, re+1)
	}
	for i := 0; i < 1000; i++ {
		send(flow.MakeAddr(30, 0, byte(i>>8), byte(i)), 1, 1000)
	}
	check("1000 sources under threshold", 1, 1)
}

func TestLiveForgedRequestDiesOverUDP(t *testing.T) {
	r := buildRig(t, true)

	// Attacker forges a StageToAttackerGW request against a fictitious
	// legit flow, addressed to its own gateway, with fabricated
	// evidence (it has no router secret).
	legit := flow.MakeAddr(10, 0, 0, 7)
	victimAddr := r.victim.Node().Addr()
	req := &packet.FilterReq{
		Stage:    packet.StageToAttackerGW,
		Flow:     flow.PairLabel(legit, victimAddr),
		Duration: time.Minute,
		Round:    1,
		Victim:   victimAddr,
		Evidence: []packet.RREntry{{Router: r.agw.Node().Addr(), Nonce: 0xbad}},
	}
	p := packet.NewControl(r.attacker.Node().Addr(), r.agw.Node().Addr(), req)
	if err := r.attacker.Node().Originate(p); err != nil {
		t.Fatal(err)
	}

	waitUntil(t, 3*time.Second, func() bool {
		return r.agw.Stats().ReqInvalid > 0
	}, "forged request was not rejected")
	if r.agw.Filters().Len() != 0 {
		t.Fatal("forged request produced a filter")
	}
}

func TestLivePolicing(t *testing.T) {
	r := buildRig(t, true)
	// Hammer v_gw with requests far beyond the contract rate; the
	// policer must drop the excess.
	victimAddr := r.victim.Node().Addr()
	for i := 0; i < 500; i++ {
		req := &packet.FilterReq{
			Stage:    packet.StageToVictimGW,
			Flow:     flow.PairLabel(flow.Addr(0xC0000000+uint32(i)), victimAddr),
			Duration: time.Minute,
			Round:    1,
			Victim:   victimAddr,
		}
		p := packet.NewControl(victimAddr, r.vgw.Node().Addr(), req)
		if err := r.victim.Node().Originate(p); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 3*time.Second, func() bool {
		return r.vgw.Stats().ReqPoliced > 0
	}, "request flood was never policed")
}

func TestBookResolveErrors(t *testing.T) {
	b := Book{flow.MakeAddr(1, 1, 1, 1): "127.0.0.1:9"}
	if _, err := b.Resolve(flow.MakeAddr(1, 1, 1, 1)); err != nil {
		t.Fatalf("Resolve known: %v", err)
	}
	if _, err := b.Resolve(flow.MakeAddr(2, 2, 2, 2)); err == nil {
		t.Fatal("Resolve unknown succeeded")
	}
}

func TestNodeForwardErrors(t *testing.T) {
	n, err := NewNode(NodeConfig{Addr: flow.MakeAddr(1, 1, 1, 1), Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p := packet.NewData(n.Addr(), flow.MakeAddr(9, 9, 9, 9), flow.ProtoUDP, 1, 2, 10)
	if err := n.forward(p, nil); err == nil {
		t.Fatal("Forward without route succeeded")
	}
	p2 := packet.NewData(n.Addr(), flow.MakeAddr(9, 9, 9, 9), flow.ProtoUDP, 1, 2, 10)
	p2.TTL = 0
	if err := n.forward(p2, nil); err == nil {
		t.Fatal("Forward with TTL 0 succeeded")
	}
}

func TestGarbageDatagramsIgnored(t *testing.T) {
	r := buildRig(t, true)
	// Blast what is not a packet at the victim gateway's socket: the
	// read loop must discard it, count it, and keep serving.
	node := r.vgw.Node()
	raw, err := netDial(node.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	valid, err := packet.Marshal(packet.NewData(flow.MakeAddr(1, 1, 1, 1), node.Addr(), flow.ProtoUDP, 1, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	junk := [][]byte{
		{0xde, 0xad, 0xbe, 0xef},                 // not the wire format
		{},                                       // empty
		valid[:len(valid)-3],                     // a real header cut short
		append(valid[:len(valid):len(valid)], 0), // a trailing byte
		make([]byte, slotSize+1),                 // longer than any packet: cut off by the read
		append(valid[:len(valid):len(valid)], make([]byte, 3*slotSize)...),
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		for _, d := range junk {
			if _, err := raw.Write(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := obs.NewRegistry()
	r.vgw.RegisterMetrics(reg)
	waitUntil(t, 5*time.Second, func() bool {
		return node.Undecodable.Load() == uint64(rounds*len(junk))
	}, "undecodable datagrams were not all counted")
	var exported float64
	for _, m := range reg.Snapshot() {
		if m.Name == "aitf_node_undecodable_total" {
			exported = *m.Value
		}
	}
	if exported != float64(rounds*len(junk)) {
		t.Fatalf("aitf_node_undecodable_total = %v, want %d", exported, rounds*len(junk))
	}
	if _, rcvd := node.Counts(); rcvd != 0 {
		t.Fatalf("%d undecodable datagrams were counted as received", rcvd)
	}

	// The gateway still works: run a normal round.
	victimAddr := r.victim.Node().Addr()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.attacker.SendData(victimAddr, flow.ProtoUDP, 4000, 80, 500)
			}
		}
	}()
	waitUntil(t, 5*time.Second, func() bool {
		return r.agw.Stats().HandshakesOK > 0
	}, "gateway wedged by garbage datagrams")
}

// TestSendMessagesExported checks aitf_node_send_messages_total next to
// aitf_node_packets_sent_total: a direct send is one kernel message, and
// a flushed batch of one destination and one size is one message where
// the socket segments runs, one per datagram where it does not.
func TestSendMessagesExported(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 2)
	g, sink := fwdGateway(t, dst)
	tx, err := newSockBatch(g.node.conn)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	pkts := make([]*packet.Packet, k)
	for i := range pkts {
		pkts[i] = packet.NewData(flow.MakeAddr(20, 0, 0, 1), dst, flow.ProtoUDP, uint16(i), 80, 100)
	}
	g.handleBatch(g.node, pkts, tx)
	if err := g.node.forward(packet.NewData(flow.MakeAddr(20, 0, 0, 1), dst, flow.ProtoUDP, k, 80, 100), nil); err != nil {
		t.Fatal(err)
	}
	readPackets(t, sink, k+1)

	wantMsgs := 1.0 + k
	if tx.sys.gso {
		wantMsgs = 2
	}
	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	var msgs, sent float64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "aitf_node_send_messages_total":
			msgs = *m.Value
		case "aitf_node_packets_sent_total":
			sent = *m.Value
		}
	}
	if msgs != wantMsgs || sent != k+1 {
		t.Fatalf("aitf_node_send_messages_total = %v, aitf_node_packets_sent_total = %v, want %v and %d",
			msgs, sent, wantMsgs, k+1)
	}
}

// recorder is a Handler that keeps, in arrival order, the wire bytes of
// every packet its node decodes.
type recorder struct {
	mu  sync.Mutex
	got [][]byte
}

func (r *recorder) Handle(n *Node, p *packet.Packet, from flow.Addr) {
	b, err := packet.Marshal(p)
	p.Release()
	if err != nil {
		b = nil
	}
	r.mu.Lock()
	r.got = append(r.got, b)
	r.mu.Unlock()
}

// take returns what the node has handed over so far and forgets it.
func (r *recorder) take() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	got := r.got
	r.got = nil
	return got
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

// newRecvNode is a running node on listen whose handler records what it
// reads. It also reports whether the socket reads with UDP_GRO: the
// probe sets the option on the socket, as the read loop's own does.
func newRecvNode(t *testing.T, listen string) (*Node, *recorder, bool) {
	t.Helper()
	n, err := NewNode(NodeConfig{Addr: flow.MakeAddr(10, 0, 3, 1), Name: "rx", Listen: listen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	probe, err := newSockBatch(n.conn)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	n.SetHandler(rec)
	n.Run()
	return n, rec, probe.sys.gro
}

// TestRecvMessagesExported checks aitf_node_recv_messages_total next to
// aitf_node_packets_received_total: a flushed run of k same-size
// datagrams from one wire node to another is k datagrams received in
// one kernel message where the sender segments and the receiver reads
// with UDP_GRO, and in k messages where either does not.
func TestRecvMessagesExported(t *testing.T) {
	rx, rec, gro := newRecvNode(t, "127.0.0.1:0")
	tx, err := NewNode(NodeConfig{Addr: flow.MakeAddr(10, 0, 1, 1), Name: "tx",
		Book: Book{rx.Addr(): rx.UDPAddr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	b, err := newSockBatch(tx.conn)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	for i := 0; i < k; i++ {
		p := packet.NewData(flow.MakeAddr(20, 0, 0, 1), rx.Addr(), flow.ProtoUDP, uint16(i), 80, 100)
		if err := tx.sendTo(rx.Addr(), p, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.flush(b); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return rec.count() == k }, "the run did not arrive")

	wantMsgs := float64(k)
	if b.sys.gso && gro {
		wantMsgs = 1
	}
	reg := obs.NewRegistry()
	rx.registerMetrics(reg)
	var msgs, rcvd float64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "aitf_node_recv_messages_total":
			msgs = *m.Value
		case "aitf_node_packets_received_total":
			rcvd = *m.Value
		}
	}
	if msgs != wantMsgs || rcvd != k {
		t.Fatalf("aitf_node_recv_messages_total = %v, aitf_node_packets_received_total = %v, want %v and %d (gso %v, gro %v)",
			msgs, rcvd, wantMsgs, k, b.sys.gso, gro)
	}
}

// TestLiveGatewayDetectionOverUDP runs the gateway-defends-legacy-host
// scenario over real sockets: the victim host has NO detector of its
// own (detect_bps 0 — a legacy, non-AITF receiver), its gateway runs
// the sketch engine for it, and the full round — detection at v_gw,
// relay, handshake answered by v_gw itself, T filter at a_gw, stop
// order — completes without the victim sending a single request.
func TestLiveGatewayDetectionOverUDP(t *testing.T) {
	var (
		victimA   = flow.MakeAddr(10, 0, 0, 2)
		vgwA      = flow.MakeAddr(10, 0, 0, 1)
		agwA      = flow.MakeAddr(10, 9, 0, 1)
		attackerA = flow.MakeAddr(10, 9, 0, 2)
	)
	tm := testTimers()
	client := contract.DefaultEndHost()
	chain := []flow.Addr{victimA, vgwA, agwA, attackerA}
	routes := func(self flow.Addr) map[flow.Addr]flow.Addr {
		pos := -1
		for i, a := range chain {
			if a == self {
				pos = i
			}
		}
		nh := make(map[flow.Addr]flow.Addr)
		for i, a := range chain {
			if i < pos {
				nh[a] = chain[pos-1]
			} else if i > pos {
				nh[a] = chain[pos+1]
			}
		}
		return nh
	}

	vgw, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: vgwA, Name: "v_gw", NextHop: routes(vgwA)},
		Timers:  tm,
		Clients: map[flow.Addr]contract.Contract{victimA: client},
		Default: contract.DefaultPeer(),
		Secret:  []byte("vgw-secret"),
		Detect: detect.Config{
			ThresholdBps: 20_000,
			Window:       100 * time.Millisecond,
		},
		DetectFor: []flow.Addr{victimA},
	})
	if err != nil {
		t.Fatal(err)
	}
	agw, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: agwA, Name: "a_gw", NextHop: routes(agwA)},
		Timers:  tm,
		Clients: map[flow.Addr]contract.Contract{attackerA: client},
		Default: contract.DefaultPeer(),
		Secret:  []byte("agw-secret"),
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewHost(HostConfig{ // legacy: no detection of its own
		Node:      NodeConfig{Addr: victimA, Name: "victim", NextHop: routes(victimA)},
		Gateway:   vgwA,
		Timers:    tm,
		Compliant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := NewHost(HostConfig{
		Node:      NodeConfig{Addr: attackerA, Name: "attacker", NextHop: routes(attackerA)},
		Gateway:   agwA,
		Timers:    tm,
		Compliant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	book := Book{
		victimA:   victim.Node().UDPAddr().String(),
		vgwA:      vgw.Node().UDPAddr().String(),
		agwA:      agw.Node().UDPAddr().String(),
		attackerA: attacker.Node().UDPAddr().String(),
	}
	for _, n := range []*Node{victim.Node(), attacker.Node(), vgw.Node(), agw.Node()} {
		n.SetBook(book)
	}
	victim.Run()
	attacker.Run()
	vgw.Run()
	agw.Run()
	t.Cleanup(func() {
		victim.Close()
		attacker.Close()
		vgw.Close()
		agw.Close()
	})

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				attacker.SendData(victimA, flow.ProtoUDP, 4000, 80, 500) // ~100 kB/s
			}
		}
	}()

	waitUntil(t, 5*time.Second, func() bool {
		return vgw.Stats().Detections > 0
	}, "victim gateway never detected the flood")

	waitUntil(t, 5*time.Second, func() bool {
		return agw.Stats().HandshakesOK > 0
	}, "handshake never completed (v_gw must answer as the victim)")

	waitUntil(t, 5*time.Second, func() bool {
		return attacker.Stats().StopOrders > 0
	}, "attacker never received a stop order")

	if got := agw.Filters().Len(); got == 0 {
		t.Fatal("attacker gateway holds no filter after the gateway-detected round")
	}
	requests := victim.Stats().RequestsSent
	if requests != 0 {
		t.Fatalf("legacy victim sent %d requests itself", requests)
	}
}

// TestInstallWithAggregationAllocator drives the wire gateway's
// table-full install path with the collateral-aware allocator: three
// /28 siblings fill a three-slot table, a measured legit sender shares
// their /24 but not their /28, and a fourth unrelated install triggers
// the allocator. The /28../24 ladder must coalesce the siblings under a
// /28 cover that spares the legit sender (zero priced collateral). The
// one-rung [24] policy — the fixed /24 fallback — must take the /24
// cover and price the legit sender's bytes as its collateral.
func TestInstallWithAggregationAllocator(t *testing.T) {
	for _, c := range []struct {
		name       string
		lens       string
		wantLen    uint8
		collateral bool
	}{
		{"ladder", "[28,24]", 28, false},
		{"one-rung", "[24]", 24, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fc, err := ParseFileConfig([]byte(`{
				"role":"gateway","addr":"10.0.0.1","listen":"127.0.0.1:0",
				"gateway":{"filter_capacity":3,"collateral_alloc":true,"alloc_prefix_lens":` + c.lens + `,
					"detect_bps":1e12,"detect_for":["9.0.0.2"]}}`))
			if err != nil {
				t.Fatal(err)
			}
			gcfg, err := fc.GatewayConfig(nil)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGateway(gcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()

			now := wallNow()
			exp := now + 10*time.Second
			victim := flow.MakeAddr(9, 0, 0, 2)
			for i := byte(1); i <= 3; i++ {
				if err := g.dp.Install(flow.PairLabel(flow.MakeAddr(20, 0, 0, i), victim), now, exp); err != nil {
					t.Fatal(err)
				}
			}
			legit := flow.MakeAddr(20, 0, 0, 200)
			g.Detector().ObserveTuple(now, flow.Tuple{Src: legit, Dst: victim, Proto: flow.ProtoUDP, SrcPort: 4000, DstPort: 80}, 1000)
			fresh := flow.PairLabel(flow.MakeAddr(30, 0, 0, 1), victim)
			g.mu.Lock()
			err = g.agg.Install(fresh, now, exp)
			g.mu.Unlock()
			if err != nil {
				t.Fatalf("allocator did not free a slot: %v", err)
			}
			st := g.Stats()
			if st.Aggregations != 1 {
				t.Fatalf("Aggregations = %d, want 1", st.Aggregations)
			}
			covers := 0
			for _, fe := range g.dp.FilterEntries() {
				if fe.Label.SrcPrefixLen == 0 {
					continue
				}
				if fe.Label.SrcPrefixLen != c.wantLen {
					t.Fatalf("cover %v, want a /%d", fe.Label, c.wantLen)
				}
				if fe.Label.CoversSrc(legit) != c.collateral {
					t.Fatalf("cover %v: covers the legit sender = %v, want %v", fe.Label, !c.collateral, c.collateral)
				}
				covers++
			}
			if covers != 1 {
				t.Fatalf("%d covers installed over the siblings, want 1", covers)
			}
			if (st.CollateralBytes > 0) != c.collateral {
				t.Fatalf("CollateralBytes = %d, want non-zero = %v", st.CollateralBytes, c.collateral)
			}
			if _, ok := g.dp.Get(fresh, now); !ok {
				t.Fatal("triggering filter not installed after aggregation")
			}
		})
	}
}

// aggregateGatewayConfig is an eight-slot gateway under the one-rung
// /24 policy, snapshotting to snapshotPath when it is non-empty.
func aggregateGatewayConfig(snapshotPath string) GatewayConfig {
	return GatewayConfig{
		Node:           NodeConfig{Addr: flow.MakeAddr(10, 0, 0, 1), Name: "gw", NextHop: map[flow.Addr]flow.Addr{}},
		Timers:         testTimers(),
		Default:        contract.DefaultPeer(),
		Secret:         []byte("secret"),
		FilterCapacity: 8,
		Allocation:     &alloc.Policy{PrefixLens: []uint8{24}},
		SnapshotPath:   snapshotPath,
	}
}

// aggregatedGateway boots an unstarted aggregateGatewayConfig gateway,
// fills its table with three /24 siblings and five unrelated filters,
// and installs one more, which coalesces the siblings under their /24.
// It returns the gateway, the siblings and the unrelated filters.
func aggregatedGateway(t *testing.T, victim flow.Addr, exp sim.Time, snapshotPath string) (*Gateway, []flow.Label, []flow.Label) {
	t.Helper()
	g, err := NewGateway(aggregateGatewayConfig(snapshotPath))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	var siblings, others []flow.Label
	for i := byte(1); i <= 3; i++ {
		siblings = append(siblings, flow.PairLabel(flow.MakeAddr(20, 0, 0, i), victim))
	}
	for i := byte(1); i <= 5; i++ {
		others = append(others, flow.PairLabel(flow.MakeAddr(30, 0, i, 1), victim))
	}
	now := wallNow()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, l := range append(append([]flow.Label{}, siblings...), others...) {
		if err := g.agg.Install(l, now, exp); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.agg.Install(flow.PairLabel(flow.MakeAddr(40, 0, 0, 1), victim), now, exp); err != nil {
		t.Fatalf("allocator did not free a slot: %v", err)
	}
	if st := g.statsLocked(); st.Aggregations != 1 {
		t.Fatalf("Aggregations = %d, want 1", st.Aggregations)
	}
	for _, l := range siblings {
		if _, ok := g.dp.Get(l, now); ok {
			t.Fatalf("sibling %v still exact after aggregation", l)
		}
	}
	return g, siblings, others
}

// TestWireAggregateSplitsBack: once the pressure that forced an
// aggregate subsides, the daemon's review splits it back into its
// exact children within about one Ttmp, as the simulator does.
func TestWireAggregateSplitsBack(t *testing.T) {
	victim := flow.MakeAddr(9, 0, 0, 2)
	g, siblings, others := aggregatedGateway(t, victim, wallNow()+10*time.Second, "")
	awaitSplitBack(t, g, victim, siblings, others, 2*time.Second)
}

// TestWireAggregateSurvivesRestart: an aggregate outstanding at a drain
// comes back as an aggregate on the restored daemon, so relief still
// splits it back into its exact children instead of leaving the cover,
// and its collateral, up until its deadline.
func TestWireAggregateSurvivesRestart(t *testing.T) {
	victim := flow.MakeAddr(9, 0, 0, 2)
	path := filepath.Join(t.TempDir(), "gw.snapshot.json")
	g, siblings, others := aggregatedGateway(t, victim, wallNow()+10*time.Second, path)
	if err := g.Close(); err != nil { // snapshot-on-drain
		t.Fatal(err)
	}
	g2, err := NewGateway(aggregateGatewayConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if _, err := g2.RestoreFromDisk(); err != nil {
		t.Fatal(err)
	}
	awaitSplitBack(t, g2, victim, siblings, others, time.Second)
}

// awaitSplitBack removes the unrelated filters that kept g's table
// under pressure, then waits up to within for the siblings' /24 cover
// to be split back into the exact sibling filters.
func awaitSplitBack(t *testing.T, g *Gateway, victim flow.Addr, siblings, others []flow.Label, within time.Duration) {
	t.Helper()
	g.mu.Lock()
	for _, l := range others {
		g.dp.Remove(l)
	}
	g.mu.Unlock()

	cover := flow.SrcPrefixLabel(flow.MakeAddr(20, 0, 0, 0), 24, victim)
	deadline := time.Now().Add(within)
	for {
		g.mu.Lock()
		now := wallNow()
		_, aggregated := g.dp.Get(cover, now)
		back := 0
		for _, l := range siblings {
			if _, ok := g.dp.Get(l, now); ok {
				back++
			}
		}
		g.mu.Unlock()
		if !aggregated && back == len(siblings) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %v: cover installed = %v, %d of %d children exact again", within, aggregated, back, len(siblings))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWireCoveredInstallRefreshesAggregate: an install a live aggregate
// already covers extends the aggregate instead of taking a slot.
func TestWireCoveredInstallRefreshesAggregate(t *testing.T) {
	victim := flow.MakeAddr(9, 0, 0, 2)
	exp := wallNow() + 10*time.Second
	g, _, _ := aggregatedGateway(t, victim, exp, "")
	g.mu.Lock()
	defer g.mu.Unlock()
	before := g.dp.Len()
	now := wallNow()
	later := exp + 5*time.Second
	fourth := flow.PairLabel(flow.MakeAddr(20, 0, 0, 4), victim)
	if err := g.agg.Install(fourth, now, later); err != nil {
		t.Fatal(err)
	}
	if n := g.dp.Len(); n != before {
		t.Fatalf("covered install took a slot: %d filters, want %d", n, before)
	}
	if _, ok := g.dp.Get(fourth, now); ok {
		t.Fatalf("covered install %v got its own exact filter", fourth)
	}
	cover := flow.SrcPrefixLabel(flow.MakeAddr(20, 0, 0, 0), 24, victim)
	if e, ok := g.dp.Get(cover, now); !ok || e.ExpiresAt != later {
		t.Fatalf("cover %v = %+v (live %v), want refreshed until %v", cover, e, ok, later)
	}
}

// TestFullTableStillRelaysRequest: a victim's gateway whose wire-speed
// table is full, with no aggregation policy to make room, loses only
// the temporary filter on a valid request. The shadow is still logged
// and the request still goes on to the attacker's gateway, as in the
// simulator gateway and in selfDetect, so the block moves to the
// attacker's side instead of being dropped on the floor.
func TestFullTableStillRelaysRequest(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	vgwA, victimA := flow.MakeAddr(10, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2)
	agwA, attackerA := flow.MakeAddr(10, 9, 0, 1), flow.MakeAddr(10, 9, 0, 2)
	g, err := NewGateway(GatewayConfig{
		Node: NodeConfig{Addr: vgwA, Name: "v_gw", NextHop: map[flow.Addr]flow.Addr{agwA: agwA},
			Book: Book{agwA: sink.LocalAddr().String()}},
		Timers:         testTimers(),
		FilterCapacity: 1,
		Clients:        map[flow.Addr]contract.Contract{victimA: contract.DefaultEndHost()},
		Default:        contract.DefaultPeer(),
		Secret:         []byte("vgw-secret"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	now := wallNow()
	if err := g.dp.Install(flow.PairLabel(flow.MakeAddr(20, 0, 0, 1), victimA), now, now+time.Minute); err != nil {
		t.Fatal(err)
	}

	label := flow.PairLabel(attackerA, victimA)
	g.Handle(g.Node(), packet.NewControl(victimA, vgwA, &packet.FilterReq{
		Stage:    packet.StageToVictimGW,
		Flow:     label,
		Duration: time.Minute,
		Round:    1,
		Victim:   victimA,
		Evidence: []packet.RREntry{
			{Router: agwA, Nonce: 1},
			{Router: vgwA, Nonce: g.rec.Nonce(flow.Tuple{Src: attackerA, Dst: victimA})},
		},
	}), victimA)

	if st := g.Stats(); st.ReqReceived != 1 || st.ReqInvalid != 0 {
		t.Fatalf("requests=%d invalid=%d, want 1, 0", st.ReqReceived, st.ReqInvalid)
	}
	if _, ok := g.dp.Get(label, now); ok {
		t.Fatal("a temporary filter fit into the full table")
	}
	if _, live := g.dp.ShadowGet(label, wallNow()); !live {
		t.Fatal("shadow not logged when the temporary filter did not fit")
	}
	relay := readPackets(t, sink, 1)[0]
	m, ok := relay.Msg.(*packet.FilterReq)
	if !ok || m.Stage != packet.StageToAttackerGW || relay.Dst != agwA || m.Flow.Canonical() != label {
		t.Fatalf("sent %+v (msg %+v), want a StageToAttackerGW request for %v to %v", relay, relay.Msg, label, agwA)
	}
	expectQuiet(t, sink)
}
