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

// send queues mix as data packets, flushes it through the node, and
// checks that each sink reads its datagrams byte-identical and in queue
// order. It returns how many kernel messages the flush took.
func (r *flushRig) send(t *testing.T, mix []queued) int {
	t.Helper()
	pkts := make([]*packet.Packet, len(mix))
	sinks := make([]int, len(mix))
	for i, q := range mix {
		r.seq++
		pkts[i] = packet.NewData(flow.MakeAddr(20, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2), flow.ProtoUDP, r.seq, 80, 100)
		for j := 0; j < q.size; j++ {
			pkts[i].RecordRoute(flow.MakeAddr(10, 0, 0, byte(3+j)), uint64(r.seq))
		}
		sinks[i] = q.sink
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
