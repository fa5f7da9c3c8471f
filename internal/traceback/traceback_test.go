package traceback

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

var (
	host1 = flow.MakeAddr(10, 0, 0, 2)
	host2 = flow.MakeAddr(10, 9, 0, 7)
	rtrA  = flow.MakeAddr(10, 0, 0, 1)
	rtrB  = flow.MakeAddr(10, 1, 0, 1)
	rtrC  = flow.MakeAddr(10, 2, 0, 1)
)

func samplePacket() *packet.Packet {
	return packet.NewData(host1, host2, flow.ProtoUDP, 4000, 80, 1000)
}

func TestStampAndVerify(t *testing.T) {
	r := NewRecorder(rtrA, []byte("secret-a"))
	p := samplePacket()
	r.Stamp(p)
	if len(p.Path) != 1 || p.Path[0].Router != rtrA {
		t.Fatalf("path = %v", p.Path)
	}
	if !r.Verify(p.Path, p.Tuple()) {
		t.Fatal("router failed to verify its own stamp")
	}
}

func TestVerifyRejectsForgedNonce(t *testing.T) {
	r := NewRecorder(rtrA, []byte("secret-a"))
	p := samplePacket()
	// A forger knows the router address but not its secret.
	p.RecordRoute(rtrA, 0x1234567890abcdef)
	if r.Verify(p.Path, p.Tuple()) {
		t.Fatal("forged nonce verified")
	}
}

// TestVerifyRejectsTampering: a single flipped authenticator bit, the
// right authenticator under another router's address, and a verifier
// keyed with a different secret must each fail.
func TestVerifyRejectsTampering(t *testing.T) {
	r := NewRecorder(rtrA, []byte("secret-a"))
	tup := samplePacket().Tuple()
	good := r.Nonce(tup)
	for bit := 0; bit < 64; bit++ {
		path := []packet.RREntry{{Router: rtrA, Nonce: good ^ 1<<bit}}
		if r.Verify(path, tup) {
			t.Fatalf("nonce with bit %d flipped verified", bit)
		}
	}
	if r.Verify([]packet.RREntry{{Router: rtrB, Nonce: good}}, tup) {
		t.Fatal("valid nonce under the wrong router address verified")
	}
	path := []packet.RREntry{{Router: rtrA, Nonce: good}}
	if NewRecorder(rtrA, []byte("secret-b")).Verify(path, tup) {
		t.Fatal("recorder with a different secret verified the stamp")
	}
	if !r.Verify(path, tup) {
		t.Fatal("untampered stamp rejected")
	}
}

func TestVerifyRejectsDifferentFlow(t *testing.T) {
	r := NewRecorder(rtrA, []byte("secret-a"))
	p := samplePacket()
	r.Stamp(p)
	// Same path entries claimed for a different flow must not verify:
	// the nonce binds the path to the tuple.
	other := flow.TupleOf(host2, host1, flow.ProtoUDP, 80, 4000)
	if r.Verify(p.Path, other) {
		t.Fatal("stamp verified for a different flow")
	}
}

func TestVerifyRejectsWrongRouterEntries(t *testing.T) {
	ra := NewRecorder(rtrA, []byte("secret-a"))
	rb := NewRecorder(rtrB, []byte("secret-b"))
	p := samplePacket()
	rb.Stamp(p)
	if ra.Verify(p.Path, p.Tuple()) {
		t.Fatal("router A verified a path containing only router B")
	}
}

func TestDistinctSecretsDistinctNonces(t *testing.T) {
	tup := samplePacket().Tuple()
	ra := NewRecorder(rtrA, []byte("secret-a"))
	rb := NewRecorder(rtrA, []byte("secret-b"))
	if ra.Nonce(tup) == rb.Nonce(tup) {
		t.Fatal("different secrets produced the same nonce")
	}
}

func TestEmptySecretDerivesFromAddr(t *testing.T) {
	tup := samplePacket().Tuple()
	ra := NewRecorder(rtrA, nil)
	rb := NewRecorder(rtrB, nil)
	if ra.Nonce(tup) == rb.Nonce(tup) {
		t.Fatal("empty-secret recorders at different addrs collide")
	}
	// Deterministic per address.
	if ra.Nonce(tup) != NewRecorder(rtrA, nil).Nonce(tup) {
		t.Fatal("empty-secret nonce not deterministic")
	}
}

func TestAttackPathExtraction(t *testing.T) {
	p := samplePacket()
	for _, r := range []*Recorder{
		NewRecorder(rtrA, []byte("a")),
		NewRecorder(rtrB, []byte("b")),
		NewRecorder(rtrC, []byte("c")),
	} {
		r.Stamp(p)
	}
	gw, err := AttackPath(p.Path).AttackerGateway()
	if err != nil || gw != rtrA {
		t.Fatalf("AttackerGateway = %v, %v", gw, err)
	}
}

func TestAttackPathHelpers(t *testing.T) {
	p := samplePacket()
	NewRecorder(rtrA, []byte("a")).Stamp(p)
	NewRecorder(rtrB, []byte("b")).Stamp(p)
	ap := AttackPath(p.Path)
	if ap.IndexOf(rtrB) != 1 || ap.IndexOf(rtrC) != -1 {
		t.Fatal("IndexOf wrong")
	}
}

func TestEmptyAttackPath(t *testing.T) {
	var ap AttackPath
	if _, err := ap.AttackerGateway(); !errors.Is(err, ErrEmptyPath) {
		t.Fatalf("err = %v", err)
	}
}

// Property: Stamp+Verify round-trips for arbitrary tuples, and a
// verifier with a different secret rejects.
func TestPropertyStampVerify(t *testing.T) {
	f := func(src, dst uint32, proto uint8, sp, dp uint16, secret []byte) bool {
		tup := flow.Tuple{Src: flow.Addr(src), Dst: flow.Addr(dst),
			Proto: flow.Proto(proto), SrcPort: sp, DstPort: dp}
		r := NewRecorder(rtrA, secret)
		path := []packet.RREntry{{Router: rtrA, Nonce: r.Nonce(tup)}}
		if !r.Verify(path, tup) {
			return false
		}
		other := NewRecorder(rtrA, append([]byte("x"), secret...))
		return !other.Verify(path, tup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sipHash24 is SipHash-2-4 over an arbitrary message, written from the
// paper's definition: the reference that Nonce's unrolled 13-byte form
// is checked against.
func sipHash24(k0, k1 uint64, msg []byte) uint64 {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573
	round := func() {
		v0 += v1
		v1 = bits.RotateLeft64(v1, 13) ^ v0
		v0 = bits.RotateLeft64(v0, 32)
		v2 += v3
		v3 = bits.RotateLeft64(v3, 16) ^ v2
		v0 += v3
		v3 = bits.RotateLeft64(v3, 21) ^ v0
		v2 += v1
		v1 = bits.RotateLeft64(v1, 17) ^ v2
		v2 = bits.RotateLeft64(v2, 32)
	}
	compress := func(m uint64) {
		v3 ^= m
		round()
		round()
		v0 ^= m
	}
	n := len(msg)
	for ; len(msg) >= 8; msg = msg[8:] {
		compress(binary.LittleEndian.Uint64(msg))
	}
	last := uint64(n) << 56
	for i, b := range msg {
		last |= uint64(b) << (8 * i)
	}
	compress(last)
	v2 ^= 0xff
	round()
	round()
	round()
	round()
	return v0 ^ v1 ^ v2 ^ v3
}

// TestSipHashReferenceVector checks the generic implementation against
// the SipHash paper's test values (appendix A: key 00..0f, message
// 00..0e; the empty message is the first entry of the reference
// implementation's vector table), then the unrolled Nonce against the
// generic implementation.
func TestSipHashReferenceVector(t *testing.T) {
	var key [16]byte
	for i := range key {
		key[i] = byte(i)
	}
	k0, k1 := binary.LittleEndian.Uint64(key[:8]), binary.LittleEndian.Uint64(key[8:])
	msg := make([]byte, 15)
	for i := range msg {
		msg[i] = byte(i)
	}
	if got := sipHash24(k0, k1, msg); got != 0xa129ca6149be45e5 {
		t.Fatalf("SipHash-2-4(00..0f, 00..0e) = %#x, want 0xa129ca6149be45e5", got)
	}
	if got := sipHash24(k0, k1, nil); got != 0x726fdb47dd0e0e31 {
		t.Fatalf("SipHash-2-4(00..0f, empty) = %#x, want 0x726fdb47dd0e0e31", got)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		r := &Recorder{addr: rtrA, k0: rng.Uint64(), k1: rng.Uint64()}
		tup := flow.Tuple{Src: flow.Addr(rng.Uint32()), Dst: flow.Addr(rng.Uint32()),
			Proto: flow.Proto(rng.Intn(256)), SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16))}
		var buf [tupleBytes]byte
		binary.BigEndian.PutUint32(buf[0:], uint32(tup.Src))
		binary.BigEndian.PutUint32(buf[4:], uint32(tup.Dst))
		buf[8] = byte(tup.Proto)
		binary.BigEndian.PutUint16(buf[9:], tup.SrcPort)
		binary.BigEndian.PutUint16(buf[11:], tup.DstPort)
		if got, want := r.Nonce(tup), sipHash24(r.k0, r.k1, buf[:]); got != want {
			t.Fatalf("Nonce(%+v) = %#x, generic SipHash-2-4 of its encoding = %#x", tup, got, want)
		}
	}
}

// TestNonceVerifyZeroAlloc pins the per-packet authenticator off the
// heap (the aitf:noalloc gate checks escapes; this checks the run).
func TestNonceVerifyZeroAlloc(t *testing.T) {
	r := NewRecorder(rtrA, []byte("secret-a"))
	tup := samplePacket().Tuple()
	path := []packet.RREntry{{Router: rtrB, Nonce: 1}, {Router: rtrA, Nonce: r.Nonce(tup)}}
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		sink += r.Nonce(tup)
		if !r.Verify(path, tup) {
			sink++
		}
	}); n != 0 {
		t.Fatalf("Nonce+Verify allocate %v/op, want 0", n)
	}
	_ = sink
}

func BenchmarkStamp(b *testing.B) {
	r := NewRecorder(rtrA, []byte("bench-secret"))
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Path = p.Path[:0]
		r.Stamp(p)
	}
}

func BenchmarkVerify(b *testing.B) {
	r := NewRecorder(rtrA, []byte("bench-secret"))
	p := samplePacket()
	r.Stamp(p)
	tup := p.Tuple()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !r.Verify(p.Path, tup) {
			b.Fatal("verify failed")
		}
	}
}
