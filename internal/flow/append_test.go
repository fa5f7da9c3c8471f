package flow

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refAddrString and refLabelString are the fmt and strings.Builder
// renderings String used before AppendTo existed, kept as the reference
// the append forms must reproduce byte for byte: trace fingerprints
// hash these bytes.
func refAddrString(a Addr) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

func refLabelString(l Label) string {
	var b strings.Builder
	writeEnd := func(wild bool, a Addr, bits uint8) {
		if wild {
			b.WriteString("*")
			return
		}
		b.WriteString(refAddrString(a))
		if bits >= 1 && bits <= 31 {
			b.WriteByte('/')
			b.WriteString(strconv.Itoa(int(bits)))
		}
	}
	writeEnd(l.Wildcards&WildSrc != 0, l.Src, l.SrcPrefixLen)
	b.WriteString("->")
	writeEnd(l.Wildcards&WildDst != 0, l.Dst, l.DstPrefixLen)
	b.WriteString(" proto=")
	if l.Wildcards&WildProto != 0 {
		b.WriteString("*")
	} else {
		b.WriteString(l.Proto.String())
	}
	b.WriteString(" sport=")
	if l.Wildcards&WildSrcPort != 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strconv.Itoa(int(l.SrcPort)))
	}
	b.WriteString(" dport=")
	if l.Wildcards&WildDstPort != 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strconv.Itoa(int(l.DstPort)))
	}
	return b.String()
}

// randAddr mixes uniformly random addresses with ones whose octets sit
// on the digit-count boundaries (0, 9, 10, 99, 100, 255).
func randAddr(rng *rand.Rand) Addr {
	if rng.Intn(2) == 0 {
		return Addr(rng.Uint32())
	}
	edge := []byte{0, 9, 10, 99, 100, 255}
	pick := func() byte { return edge[rng.Intn(len(edge))] }
	return MakeAddr(pick(), pick(), pick(), pick())
}

// randLabel draws the i-th label of a sweep: i walks every wildcard
// combination, and the prefix lengths and protocol come from lists that
// hold every boundary (0, 1, 31, 32; each named protocol, a numbered
// one).
func randLabel(rng *rand.Rand, i int) Label {
	bits := []uint8{0, 1, 31, 32, uint8(2 + rng.Intn(29))}
	protos := []Proto{ProtoAny, ProtoUDP, ProtoTCP, ProtoICMP, ProtoAITF, Proto(rng.Intn(256))}
	return Label{
		Src: randAddr(rng), Dst: randAddr(rng),
		Proto:        protos[rng.Intn(len(protos))],
		SrcPort:      uint16(rng.Intn(1 << 16)),
		DstPort:      uint16(rng.Intn(1 << 16)),
		Wildcards:    Wild(i) & wildAll,
		SrcPrefixLen: bits[rng.Intn(len(bits))],
		DstPrefixLen: bits[rng.Intn(len(bits))],
	}
}

// TestAppendToMatchesReference: AppendTo and String produce exactly the
// bytes the fmt-based renderings did, appended after whatever the
// buffer already held.
func TestAppendToMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prefix := []byte("x|")
	for i := 0; i < 10000; i++ {
		a := randAddr(rng)
		want := refAddrString(a)
		if got := a.String(); got != want {
			t.Fatalf("Addr(%#x).String() = %q, want %q", uint32(a), got, want)
		}
		if got := string(a.AppendTo(nil)); got != want {
			t.Fatalf("Addr(%#x).AppendTo(nil) = %q, want %q", uint32(a), got, want)
		}
		if got := string(a.AppendTo(prefix)); got != "x|"+want {
			t.Fatalf("Addr(%#x).AppendTo(%q) = %q", uint32(a), prefix, got)
		}

		l := randLabel(rng, i)
		want = refLabelString(l)
		if got := l.String(); got != want {
			t.Fatalf("%+v.String() = %q, want %q", l, got, want)
		}
		if got := string(l.AppendTo(nil)); got != want {
			t.Fatalf("%+v.AppendTo(nil) = %q, want %q", l, got, want)
		}
		if got := string(l.AppendTo(prefix)); got != "x|"+want {
			t.Fatalf("%+v.AppendTo(%q) = %q", l, prefix, got)
		}
		if len(want) > 77 {
			t.Fatalf("%q is %d bytes; Label.String sizes its buffer for 77", want, len(want))
		}
	}
}

// TestAppendToParses: what AppendTo writes for a canonical label is
// what parseLabel reads back. The one label text cannot carry is a
// concrete protocol 0, which renders "any" and parses as the wildcard.
func TestAppendToParses(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 10000; i++ {
		l := randLabel(rng, i).Canonical()
		if l.Wildcards&WildProto == 0 && l.Proto == ProtoAny {
			l.Wildcards |= WildProto
		}
		s := string(l.AppendTo(nil))
		got, err := parseLabel(s)
		if err != nil {
			t.Fatalf("parseLabel(%q): %v", s, err)
		}
		if got != l {
			t.Fatalf("parseLabel(%q) = %+v, want %+v", s, got, l)
		}
	}
}

// TestAppendToAllocs pins the allocation contract: appending into a
// buffer with room allocates nothing, and String allocates only its
// result.
func TestAppendToAllocs(t *testing.T) {
	a := MakeAddr(255, 255, 255, 255)
	l := Label{Src: a, Dst: a, Proto: 255, SrcPort: 65535, DstPort: 65535, SrcPrefixLen: 31, DstPrefixLen: 31}
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { buf = a.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("Addr.AppendTo into a sized buffer allocates %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = l.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("Label.AppendTo into a sized buffer allocates %v, want 0", n)
	}
	var s string
	if n := testing.AllocsPerRun(100, func() { s = a.String() }); n != 1 {
		t.Errorf("Addr.String allocates %v, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { s = l.String() }); n != 1 {
		t.Errorf("Label.String allocates %v, want 1", n)
	}
	_ = s
}
