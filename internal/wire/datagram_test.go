package wire

import (
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/traceback"
)

// datagramScript lays datagrams out as FuzzDatagram reads them: each is
// a 2-byte big-endian length, then that many bytes.
func datagramScript(dgrams ...[]byte) []byte {
	var b []byte
	for _, d := range dgrams {
		b = binary.BigEndian.AppendUint16(b, uint16(len(d)))
		b = append(b, d...)
	}
	return b
}

// marshalled encodes p, failing the seed set on a packet the codec
// refuses.
func marshalled(f *testing.F, p *packet.Packet) []byte {
	b, err := packet.Marshal(p)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// wireKey is what a send keeps of the datagram it came from:
// everything but the route record the gateway stamps, the TTL and a
// control message's body.
type wireKey struct {
	kind             packet.MsgKind // 0 for data
	src, dst         flow.Addr
	proto            flow.Proto
	srcPort, dstPort uint16
	payload          uint16
}

func keyOf(p *packet.Packet) wireKey {
	var kind packet.MsgKind
	if p.Msg != nil {
		kind = p.Msg.Kind()
	}
	return wireKey{kind, p.Src, p.Dst, p.Proto, p.SrcPort, p.DstPort, p.PayloadLen}
}

// sent runs handle and reads from sink the keys of every datagram g
// sent meanwhile, in the order they arrive.
func sent(t *testing.T, g *Gateway, sink *net.UDPConn, handle func()) []wireKey {
	before, _ := g.node.Counts()
	handle()
	after, _ := g.node.Counts()
	buf := make([]byte, slotSize)
	var keys []wireKey
	for i := uint64(0); i < after-before; i++ {
		sink.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := sink.Read(buf)
		if err != nil {
			t.Fatalf("read send %d of %d: %v", i+1, after-before, err)
		}
		p, err := packet.Unmarshal(buf[:n])
		if err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
		keys = append(keys, keyOf(p))
	}
	return keys
}

// FuzzDatagram feeds a gateway's read path hostile bytes. The script is
// split into datagrams (datagramScript; a length the script runs out
// before is cut short, and one above the slot is a message longer than
// its slot), up to batchSlots a read, and each read goes through
// sockBatch.decode into Gateway.handleBatch, as a read-loop wakeup
// does. It must not panic, and every datagram must be either counted
// undecodable or handed to the gateway. A second gateway takes the same
// packets one Handle call at a time, each send leaving at once, and the
// batch must send what it sends, in the same order: nothing a control
// packet installs or sends may reach the data that arrived ahead of it.
// Both gateways police control at no rate, so their wall clocks cannot
// tell them apart.
func FuzzDatagram(f *testing.F) {
	victimA, attackerA := flow.MakeAddr(10, 0, 0, 2), flow.MakeAddr(30, 0, 0, 1)
	otherA := flow.MakeAddr(20, 0, 0, 1)
	gwA := flow.MakeAddr(10, 0, 1, 1) // fwdGateway's address
	data := func(src flow.Addr, port uint16) []byte {
		return marshalled(f, packet.NewData(src, victimA, flow.ProtoUDP, port, 80, 100))
	}
	// A request from src, relayed through the routers in via.
	requestVia := func(src flow.Addr, txid uint64, via ...flow.Addr) []byte {
		rec := traceback.NewRecorder(gwA, []byte("gw-secret"))
		p := packet.NewControl(src, gwA, &packet.FilterReq{
			Stage:    packet.StageToVictimGW,
			Flow:     flow.PairLabel(attackerA, victimA),
			Duration: time.Second,
			Round:    1,
			Txid:     txid,
			Victim:   victimA,
			Evidence: []packet.RREntry{{Router: gwA, Nonce: rec.Nonce(flow.Tuple{Src: attackerA, Dst: victimA})}},
		})
		for i, r := range via {
			p.RecordRoute(r, uint64(i))
		}
		return marshalled(f, p)
	}
	request := func(txid uint64) []byte { return requestVia(victimA, txid) }
	// Control from a non-neighbour: an address no route, address book
	// entry or contract names, as the source or as the last router.
	stranger := flow.MakeAddr(99, 0, 0, 1)
	fromStranger, viaStranger := requestVia(stranger, 3), requestVia(victimA, 4, stranger)
	full := packet.NewData(attackerA, victimA, flow.ProtoUDP, 9, 80, 100)
	for i := range packet.MaxPathLen {
		full.RecordRoute(flow.Addr(i+1), uint64(i))
	}
	overlong := marshalled(f, full)
	overlong[3+packet.HeaderBytes]++ // a route record one entry over MaxPathLen
	transit := marshalled(f, packet.NewControl(attackerA, victimA,
		&packet.VerifyQuery{Flow: flow.PairLabel(attackerA, victimA), Nonce: 7}))
	a, o := func(port uint16) []byte { return data(attackerA, port) }, func(port uint16) []byte { return data(otherA, port) }

	f.Add(datagramScript(o(1), a(2), request(1), a(3), o(4)))             // control mid-batch
	f.Add(datagramScript(a(1), request(0), a(2)))                         // a zero txid
	f.Add(datagramScript(a(1), a(2)[:20], a(3), request(1)[:40]))         // truncated
	f.Add(append(datagramScript(a(1)), 0x0b, 0xb8, 0xaa, 0xbb))           // 3000 bytes announced
	f.Add(datagramScript(a(1), make([]byte, slotSize+1), a(2)))           // longer than a slot
	f.Add(datagramScript(marshalled(f, full), overlong, a(2)))            // route record at and over the bound
	f.Add(datagramScript(o(1), transit, o(2), transit, request(2), a(3))) // control in transit
	f.Add(datagramScript(nil, a(1)))                                      // an empty datagram
	f.Add(datagramScript(a(1), fromStranger, a(2), viaStranger, o(3)))    // control from a non-neighbour
	f.Add(datagramScript(a(1), request(5), a(2), o(3), request(5), a(4))) // a replayed txid
	f.Fuzz(func(t *testing.T, script []byte) {
		gb, sinkB := fwdGateway(t, victimA)
		gs, sinkS := fwdGateway(t, victimA)
		var bs [2]*sockBatch
		for i, g := range []*Gateway{gb, gs} {
			g.mu.Lock()
			g.cfg.Default.R1Burst = math.MaxInt32
			g.mu.Unlock()
			b, err := newSockBatch(g.node.conn)
			if err != nil {
				t.Fatal(err)
			}
			bs[i] = b
		}
		var pb, ps []*packet.Packet
		for len(script) >= 2 {
			got := 0
			for ; got < batchSlots && len(script) >= 2; got++ {
				n := int(binary.BigEndian.Uint16(script))
				script = script[2:]
				body := script[:min(n, len(script))]
				script = script[len(body):]
				m := rxMsg{n: len(body)}
				if n > slotSize {
					m = rxMsg{n: n, trunc: true}
				}
				for _, b := range bs {
					copy(b.slot(got), body)
					b.rx[got] = m
				}
			}
			var bad int
			pb, _, bad = bs[0].decode(pb[:0], got)
			ps, _, _ = bs[1].decode(ps[:0], got)
			if bad+len(pb) != got {
				t.Fatalf("%d datagrams: %d undecodable and %d decoded", got, bad, len(pb))
			}
			batch := sent(t, gb, sinkB, func() { gb.handleBatch(gb.node, pb, bs[0]) })
			each := sent(t, gs, sinkS, func() {
				for _, p := range ps {
					gs.Handle(gs.node, p, prevHop(p))
				}
			})
			if len(batch) != len(each) {
				t.Fatalf("the batch sent %d datagrams, one at a time %d:\n%+v\n%+v", len(batch), len(each), batch, each)
			}
			for i := range batch {
				if batch[i] != each[i] {
					t.Fatalf("send %d of the batch is %+v, one at a time %+v", i+1, batch[i], each[i])
				}
			}
		}
	})
}
