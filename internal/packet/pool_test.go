package packet

import (
	"bytes"
	"reflect"
	"testing"

	"aitf/internal/flow"
)

func poolPkt(n int) *Packet {
	p := NewData(flow.MakeAddr(10, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2), flow.ProtoUDP, 1000, 80, 500)
	for i := 0; i < n; i++ {
		p.RecordRoute(flow.MakeAddr(192, 0, 0, byte(i+1)), uint64(i)*7+1)
	}
	return p
}

// TestCloneNeverAliasesPath is the pooled-reuse aliasing property: a
// clone's Path (a copy decoded into a pooled shell, as a receiver makes
// one) must stay intact no matter what later happens to the
// original — including the original being released, recycled by the
// pool into a brand-new packet, and that packet growing its own route
// record into the recycled backing array.
func TestCloneNeverAliasesPath(t *testing.T) {
	for round := 0; round < 100; round++ {
		p := poolPkt(6)
		c := clone(t, p)
		want := append([]RREntry(nil), p.Path...)

		// Mutating the original in place must not show through.
		p.Path[0] = RREntry{Router: 0xdead, Nonce: 0xbeef}
		if !reflect.DeepEqual(c.Path, want) {
			t.Fatalf("round %d: clone aliases original's live Path", round)
		}

		// Release the original and draw fresh packets until the pool
		// hands its shell back (with the Get/Put pool this is usually
		// immediate; the loop keeps the test honest if it isn't).
		p.Release()
		for i := 0; i < 4; i++ {
			q := Get()
			for j := 0; j < 8; j++ {
				q.RecordRoute(flow.MakeAddr(203, 0, byte(i), byte(j)), 0xffffffff)
			}
			if !reflect.DeepEqual(c.Path, want) {
				t.Fatalf("round %d: clone aliases recycled Path backing", round)
			}
			q.Release()
		}

		// And the other direction: release the clone, reuse its shell,
		// and confirm a second clone of a fresh packet is untouched.
		c.Release()
	}
}

// TestReleaseResetsShell: a released-then-reacquired packet must not
// leak the previous life's header, message, or route record.
func TestReleaseResetsShell(t *testing.T) {
	p := poolPkt(3)
	p.Msg = &VerifyQuery{Nonce: 42}
	p.Release()
	q := Get()
	if q.Msg != nil || len(q.Path) != 0 || q.Header != (Header{}) {
		t.Fatalf("pooled packet not reset: %+v", q)
	}
	q.Release()
}

// TestAppendMarshalMatchesMarshal: the buffer-reusing encoder must be
// byte-identical to the allocating one, including when appending after
// existing bytes and when reusing a grown buffer across packets.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	pkts := []*Packet{
		poolPkt(0),
		poolPkt(5),
		NewControl(1, 2, &FilterReq{Stage: StageToVictimGW, Flow: flow.PairLabel(3, 4),
			Victim: 9, Evidence: []RREntry{{Router: 7, Nonce: 8}}}),
		NewControl(1, 2, &VerifyReply{Flow: flow.PairLabel(3, 4), Nonce: 77}),
	}
	buf := make([]byte, 0, 8)
	for i, p := range pkts {
		want, err := Marshal(p)
		if err != nil {
			t.Fatalf("pkt %d: %v", i, err)
		}
		prefix := []byte{0xAA, 0xBB}
		got, err := AppendMarshal(append(buf[:0], prefix...), p)
		if err != nil {
			t.Fatalf("pkt %d: %v", i, err)
		}
		if !bytes.Equal(got[:2], prefix) {
			t.Fatalf("pkt %d: AppendMarshal clobbered the prefix", i)
		}
		if !bytes.Equal(got[2:], want) {
			t.Fatalf("pkt %d: AppendMarshal diverges from Marshal", i)
		}
		buf = got[:0] // reuse across iterations, as wire.SendTo does
	}
}

// TestUnmarshalIntoReusesBacking: decoding into a pooled packet must
// produce the same result as a fresh Unmarshal and must reuse the Path
// capacity it was handed, making the steady-state decode of
// shim-bearing data packets allocation-free.
func TestUnmarshalIntoReusesBacking(t *testing.T) {
	p := poolPkt(6)
	b, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}

	target := poolPkt(8) // has capacity >= 6 already
	backing := &target.Path[:1][0]
	if err := UnmarshalInto(target, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(target, want) {
		t.Fatalf("UnmarshalInto = %+v, want %+v", target, want)
	}
	if &target.Path[:1][0] != backing {
		t.Fatal("UnmarshalInto did not reuse the Path backing array")
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if err := UnmarshalInto(target, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm UnmarshalInto allocates %v/op, want 0", allocs)
	}

	// A mangled datagram must leave the packet releasable and keep the
	// backing for the next decode.
	if err := UnmarshalInto(target, b[:5]); err == nil {
		t.Fatal("truncated datagram decoded")
	}
	target.Release()
}

// clone copies p into a pooled shell the way a receiver does: Marshal,
// then UnmarshalInto a packet from Get.
func clone(t *testing.T, p *Packet) *Packet {
	t.Helper()
	b, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	c := Get()
	if err := UnmarshalInto(c, b); err != nil {
		t.Fatal(err)
	}
	return c
}
