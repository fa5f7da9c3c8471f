//go:build linux && (amd64 || arm64)

package wire

import (
	"bytes"
	"math/rand"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

// queued is one datagram of a test mix: the sink it goes to and its
// size class (route-record entries).
type queued struct{ sink, size int }

// flushRig is a node with its own sockBatch and two IPv4 sinks.
type flushRig struct {
	n     *Node
	tx    *sockBatch
	sinks [2]*net.UDPConn
	to    [2]netip.AddrPort
	seq   uint16
}

func newFlushRig(t *testing.T, listen string) *flushRig {
	t.Helper()
	n, err := NewNode(NodeConfig{Addr: flow.MakeAddr(10, 0, 1, 1), Name: "tx", Listen: listen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	tx, err := newSockBatch(n.conn)
	if err != nil {
		t.Fatal(err)
	}
	r := &flushRig{n: n, tx: tx}
	for i := range r.sinks {
		sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sink.Close() })
		ap := sink.LocalAddr().(*net.UDPAddr).AddrPort()
		r.sinks[i], r.to[i] = sink, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	return r
}

// dataOfSize is a data packet whose encoding carries rr route-record
// entries: 21+12*rr bytes.
func dataOfSize(seq uint16, rr int) *packet.Packet {
	p := packet.NewData(flow.MakeAddr(20, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2), flow.ProtoUDP, seq, 80, 100)
	for j := 0; j < rr; j++ {
		p.RecordRoute(flow.MakeAddr(10, 0, 0, byte(3+j)), uint64(seq))
	}
	return p
}

// send queues mix as data packets, flushes it through the node, and
// checks that each sink reads its datagrams byte-identical and in queue
// order. It returns how many kernel messages the flush took.
func (r *flushRig) send(t *testing.T, mix []queued) int {
	t.Helper()
	pkts := make([]*packet.Packet, len(mix))
	sinks := make([]int, len(mix))
	for i, q := range mix {
		r.seq++
		pkts[i], sinks[i] = dataOfSize(r.seq, q.size), q.sink
	}
	return r.sendPackets(t, pkts, sinks)
}

// sendPackets is send for any packets, pkts[i] queued for sink sinks[i].
func (r *flushRig) sendPackets(t *testing.T, pkts []*packet.Packet, sinks []int) int {
	t.Helper()
	var want [2][][]byte
	msgs0 := r.n.SendMsgs.Load()
	for i, p := range pkts {
		b, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		want[sinks[i]] = append(want[sinks[i]], b)
		if err := r.tx.queue(p, r.to[sinks[i]]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.n.flush(r.tx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if r.tx.txN != 0 {
		t.Fatalf("%d datagrams still queued after the flush", r.tx.txN)
	}
	buf := make([]byte, slotSize)
	for s, dgrams := range want {
		for i, w := range dgrams {
			r.sinks[s].SetReadDeadline(time.Now().Add(2 * time.Second))
			k, err := r.sinks[s].Read(buf)
			if err != nil {
				t.Fatalf("sink %d, datagram %d of %d: %v", s, i+1, len(dgrams), err)
			}
			if !bytes.Equal(buf[:k], w) {
				t.Fatalf("sink %d, datagram %d: read % x, queued % x", s, i+1, buf[:k], w)
			}
		}
	}
	return int(r.n.SendMsgs.Load() - msgs0)
}

// runs is how many same-sink, same-size runs mix has.
func runs(mix []queued) int {
	k := 0
	for i, q := range mix {
		if i == 0 || q != mix[i-1] {
			k++
		}
	}
	return k
}

// TestFlushCoalescesRuns checks that a flush sends each maximal run of
// same-destination, same-size datagrams no longer than maxSegBytes as
// one kernel message where the socket segments (and one message per
// datagram where it does not, or for a longer one), and that either way
// every sink reads exactly what was queued for it, in queue order. It
// covers an AF_INET socket and a dual-stack one that writes v4-mapped
// destinations, and the switch to one datagram a message when the
// kernel turns a segmented message down.
func TestFlushCoalescesRuns(t *testing.T) {
	fixed := []queued{
		{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, // 5 equal to sink A
		{0, 2}, {0, 2}, // 2 of another size to A
		{1, 1}, {1, 1}, {1, 1}, // 3 to sink B
		{0, 1}, // 1 to A
	}
	for _, listen := range []string{"127.0.0.1:0", ":0"} {
		t.Run(listen, func(t *testing.T) {
			r := newFlushRig(t, listen)
			if listen == ":0" && !r.tx.sys.inet6 {
				t.Skip("no IPv6: the wildcard socket is AF_INET")
			}
			probed := r.tx.sys.gso
			if !probed {
				t.Log("the kernel lacks UDP_SEGMENT: every run is a run of 1")
			}
			wantFixed := len(fixed)
			if probed {
				wantFixed = 4
			}
			if got := r.send(t, fixed); got != wantFixed {
				t.Fatalf("the fixed mix took %d kernel messages, want %d", got, wantFixed)
			}
			if sent, data := r.n.Sent.Load(), r.n.DataSent.Load(); sent != 11 || data != 11 {
				t.Fatalf("Sent %d, DataSent %d, want 11 and 11", sent, data)
			}

			// Control packets: a run of the longest filtering requests
			// leaves one message each, a run of verification replies as
			// one message where the socket segments.
			const k = 6
			long, replies := make([]*packet.Packet, k), make([]*packet.Packet, k)
			label := flow.PairLabel(flow.MakeAddr(30, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2))
			for i := range long {
				path := make([]packet.RREntry, packet.MaxPathLen)
				long[i] = packet.NewControl(flow.MakeAddr(10, 0, 0, 2), flow.MakeAddr(10, 9, 0, 1), &packet.FilterReq{
					Stage: packet.StageToAttackerGW, Flow: label, Duration: time.Second, Round: 1,
					Victim: flow.MakeAddr(10, 0, 0, 2), Evidence: path, Txid: uint64(i)})
				long[i].Path = path
				replies[i] = packet.NewControl(flow.MakeAddr(10, 0, 0, 2), flow.MakeAddr(10, 9, 0, 1),
					&packet.VerifyReply{Flow: label, Nonce: uint64(i)})
			}
			if b, _ := packet.Marshal(long[0]); len(b) <= maxSegBytes {
				t.Fatalf("the longest filtering request is %d bytes, within maxSegBytes %d", len(b), maxSegBytes)
			}
			oneSink := make([]int, k)
			ctrl0 := r.n.CtrlSent.Load()
			if got := r.sendPackets(t, long, oneSink); got != k {
				t.Fatalf("%d same-size filtering requests of the longest kind took %d kernel messages, want %d", k, got, k)
			}
			wantReplies := k
			if probed {
				wantReplies = 1
			}
			if got := r.sendPackets(t, replies, oneSink); got != wantReplies {
				t.Fatalf("%d verification replies took %d kernel messages, want %d", k, got, wantReplies)
			}
			if ctrl := r.n.CtrlSent.Load() - ctrl0; ctrl != 2*k {
				t.Fatalf("CtrlSent grew by %d, want %d", ctrl, 2*k)
			}

			r.tx.sys.gso = false
			if got := r.send(t, fixed); got != len(fixed) {
				t.Fatalf("without gso the fixed mix took %d kernel messages, want %d", got, len(fixed))
			}

			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 200; i++ {
				mix := make([]queued, 1+rng.Intn(batchSlots))
				for j := range mix {
					mix[j] = queued{rng.Intn(2), rng.Intn(3)}
				}
				for _, gso := range []bool{probed, false} {
					r.tx.sys.gso = gso
					want := len(mix)
					if gso {
						want = runs(mix)
					}
					if got := r.send(t, mix); got != want {
						t.Fatalf("mix %d (gso %v): %d kernel messages, want %d", i, gso, got, want)
					}
				}
			}

			if probed {
				// With SO_NO_CHECK the kernel refuses to segment (EINVAL):
				// the flush must switch gso off and still deliver and
				// count every datagram exactly once.
				r.tx.sys.gso = true
				var serr error
				if err := r.tx.sys.rc.Control(func(fd uintptr) {
					serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
				}); err != nil || serr != nil {
					t.Fatalf("SO_NO_CHECK: %v %v", err, serr)
				}
				sent0 := r.n.Sent.Load()
				if got := r.send(t, fixed); got != len(fixed) || r.tx.sys.gso {
					t.Fatalf("after a refused segmented message: %d kernel messages with gso %v, want %d and false",
						got, r.tx.sys.gso, len(fixed))
				}
				if sent := r.n.Sent.Load() - sent0; sent != uint64(len(fixed)) {
					t.Fatalf("the fallback flush counted %d datagrams sent, want %d", sent, len(fixed))
				}
			}
			for _, sink := range r.sinks {
				expectQuiet(t, sink)
			}
		})
	}
}

// TestReadSplitsCoalescedRuns sends a wire node's flushes to two wire
// nodes' read loops and checks that each reads exactly what was queued
// for it, byte-identical and in queue order, in one kernel receive per
// run where the sender segments and the receivers read with UDP_GRO
// (one per datagram otherwise). A run longer than a slot leaves as
// messages of at most slotSize bytes, which the receiver takes whole.
// It covers AF_INET sockets and dual-stack ones.
func TestReadSplitsCoalescedRuns(t *testing.T) {
	for _, listen := range []string{"127.0.0.1:0", ":0"} {
		t.Run(listen, func(t *testing.T) {
			r := newFlushRig(t, listen)
			if listen == ":0" && !r.tx.sys.inet6 {
				t.Skip("no IPv6: the wildcard socket is AF_INET")
			}
			var rx [2]*Node
			var recs [2]*recorder
			gro := true
			for i := range rx {
				var g bool
				rx[i], recs[i], g = newRecvNode(t, listen)
				gro = gro && g
				ap := rx[i].UDPAddr().AddrPort()
				r.to[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), ap.Port())
			}
			probed := r.tx.sys.gso
			if !probed || !gro {
				t.Logf("gso %v, gro %v: every datagram is a kernel receive of its own", probed, gro)
			}

			// send flushes pkts, pkts[i] to receiver sinks[i], and returns
			// how many kernel receives they took.
			send := func(t *testing.T, pkts []*packet.Packet, sinks []int) int {
				t.Helper()
				var want [2][][]byte
				var msgs0 uint64
				for i := range rx {
					msgs0 += rx[i].RecvMsgs.Load()
				}
				for i, p := range pkts {
					b, err := packet.Marshal(p)
					if err != nil {
						t.Fatal(err)
					}
					want[sinks[i]] = append(want[sinks[i]], b)
					if err := r.tx.queue(p, r.to[sinks[i]]); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.n.flush(r.tx); err != nil {
					t.Fatalf("flush: %v", err)
				}
				var msgs uint64
				for i := range rx {
					waitUntil(t, 5*time.Second, func() bool { return recs[i].count() >= len(want[i]) },
						"a receiver did not read every datagram queued for it")
					got := recs[i].take()
					if len(got) != len(want[i]) {
						t.Fatalf("receiver %d read %d datagrams, want %d", i, len(got), len(want[i]))
					}
					for j := range got {
						if !bytes.Equal(got[j], want[i][j]) {
							t.Fatalf("receiver %d, datagram %d: read % x, queued % x", i, j+1, got[j], want[i][j])
						}
					}
					if u := rx[i].Undecodable.Load(); u != 0 {
						t.Fatalf("receiver %d dropped %d datagrams as undecodable", i, u)
					}
					msgs += rx[i].RecvMsgs.Load()
				}
				return int(msgs - msgs0)
			}
			sendMix := func(t *testing.T, mix []queued) int {
				pkts, sinks := make([]*packet.Packet, len(mix)), make([]int, len(mix))
				for i, q := range mix {
					r.seq++
					pkts[i], sinks[i] = dataOfSize(r.seq, q.size), q.sink
				}
				return send(t, pkts, sinks)
			}

			fixed := []queued{
				{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1},
				{0, 2}, {0, 2},
				{1, 1}, {1, 1}, {1, 1},
				{0, 1},
			}
			want := len(fixed)
			if probed && gro {
				want = 4
			}
			if got := sendMix(t, fixed); got != want {
				t.Fatalf("the fixed mix took %d kernel receives, want %d", got, want)
			}

			// The cap: 32 datagrams of 105 bytes to one receiver are 3,360
			// bytes, so the run leaves as two messages within a slot each.
			const capSize = 7 // route-record entries: 105 bytes
			long := make([]queued, batchSlots)
			for i := range long {
				long[i] = queued{1, capSize}
			}
			msgs0 := r.n.SendMsgs.Load()
			got := sendMix(t, long)
			if probed {
				if sent := r.n.SendMsgs.Load() - msgs0; sent != 2 {
					t.Fatalf("a run of %d × 105 B left in %d kernel messages, want 2", batchSlots, sent)
				}
				for m, k := range r.tx.sys.txSegs[:2] {
					if k*(21+12*capSize) > slotSize {
						t.Fatalf("message %d carried %d datagrams of 105 B, over slotSize %d", m, k, slotSize)
					}
				}
			}
			want = batchSlots
			if probed && gro {
				want = 2
			}
			if got != want {
				t.Fatalf("a run of %d × 105 B took %d kernel receives, want %d", batchSlots, got, want)
			}

			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 50; i++ {
				mix := make([]queued, 1+rng.Intn(batchSlots))
				for j := range mix {
					mix[j] = queued{rng.Intn(2), rng.Intn(3)}
				}
				for _, gso := range []bool{probed, false} {
					r.tx.sys.gso = gso
					want := len(mix)
					if gso && gro {
						want = runs(mix)
					}
					if got := sendMix(t, mix); got != want {
						t.Fatalf("mix %d (gso %v, gro %v): %d kernel receives, want %d", i, gso, gro, got, want)
					}
				}
			}
		})
	}
}

// TestTruncatedCoalescedMessage has a plain socket send a node one
// segmented message of 30 datagrams of 105 bytes, longer than a slot,
// as no wire node sends. The node must handle the datagrams that fit
// whole, count the cut tail once as undecodable, and switch UDP_GRO
// off, so that the same message sent again arrives as 30 datagrams.
func TestTruncatedCoalescedMessage(t *testing.T) {
	rx, rec, gro := newRecvNode(t, "127.0.0.1:0")
	if !gro {
		t.Skip("the kernel lacks UDP_GRO")
	}
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const k, size = 30, 105
	var payload []byte
	var want [][]byte
	for i := 0; i < k; i++ {
		b, err := packet.Marshal(dataOfSize(uint16(i), 7))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != size {
			t.Fatalf("datagram of %d bytes, want %d", len(b), size)
		}
		payload, want = append(payload, b...), append(want, b)
	}
	c := gsoCmsg{hdr: syscall.Cmsghdr{Level: solUDP, Type: udpSegment}, size: size}
	c.hdr.SetLen(syscall.SizeofCmsghdr + 2)
	oob := unsafe.Slice((*byte)(unsafe.Pointer(&c)), unsafe.Sizeof(c))
	to := rx.UDPAddr()
	if _, _, err := raw.WriteMsgUDP(payload, oob, to); err != nil {
		t.Skipf("the kernel refuses a segmented send: %v", err)
	}

	whole := slotSize / size
	waitUntil(t, 5*time.Second, func() bool { return rx.Undecodable.Load() == 1 && rec.count() == whole },
		"the datagrams of the cut message that fit were not handled, or its tail not counted")
	got := rec.take()
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d: read % x, sent % x", i+1, got[i], want[i])
		}
	}
	if msgs := rx.RecvMsgs.Load(); msgs != 1 {
		t.Fatalf("the coalesced message took %d kernel receives, want 1", msgs)
	}
	var on int
	var gerr error
	rc, err := rx.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	rc.Control(func(fd uintptr) { on, gerr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO) })
	if gerr == nil && on != 0 {
		t.Fatal("UDP_GRO is still on after a cut coalesced message")
	}

	if _, _, err := raw.WriteMsgUDP(payload, oob, to); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return rec.count() == k }, "the second message did not arrive as datagrams")
	got = rec.take()
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("second send, datagram %d: read % x, sent % x", i+1, got[i], want[i])
		}
	}
	if msgs, u := rx.RecvMsgs.Load(), rx.Undecodable.Load(); msgs != 1+k || u != 1 {
		t.Fatalf("after the second send: %d kernel receives and %d undecodable, want %d and 1", msgs, u, 1+k)
	}
}
