package flow

import "testing"

// FuzzLabelRoundTrip builds a label from arbitrary fields and checks
// the rendering and canonical-form contract: String agrees with
// AppendTo, canonicalization is idempotent, leaves prefix lengths in
// [0, 31], and does not change which tuples match, and a canonical
// label's text reads back as the label. Interesting inputs
// found by the fuzzer are kept under testdata/fuzz/FuzzLabelRoundTrip.
func FuzzLabelRoundTrip(f *testing.F) {
	type seed struct {
		l          Label
		tsrc, tdst Addr
	}
	for _, s := range []seed{
		{l: Exact(MakeAddr(1, 2, 3, 4), MakeAddr(5, 6, 7, 8), ProtoUDP, 1, 2)},
		{l: Label{Dst: MakeAddr(10, 0, 0, 9), DstPort: 80, Wildcards: WildSrc | WildProto | WildSrcPort}},
		{l: SrcPrefixLabel(MakeAddr(240, 1, 2, 0), 24, MakeAddr(10, 0, 0, 9)), tsrc: MakeAddr(240, 1, 2, 77), tdst: MakeAddr(10, 0, 0, 9)},
		{l: Label{Src: MakeAddr(9, 8, 7, 0), Dst: MakeAddr(6, 5, 0, 0), SrcPrefixLen: 25, DstPrefixLen: 17, Proto: ProtoTCP, SrcPort: 1, DstPort: 2}},
		{l: Label{Src: MakeAddr(1, 2, 3, 4), Dst: MakeAddr(5, 6, 7, 8), SrcPrefixLen: 32, Proto: ProtoAITF}},
		{l: Label{Wildcards: WildSrc | WildDst | WildProto | WildSrcPort | WildDstPort}},
		{l: Label{Src: MakeAddr(255, 255, 255, 255), SrcPrefixLen: 1, Proto: 99, SrcPort: 65535}},
	} {
		l := s.l
		f.Add(uint32(l.Src), uint32(l.Dst), l.SrcPort, l.DstPort, uint8(l.Proto), uint8(l.Wildcards),
			l.SrcPrefixLen, l.DstPrefixLen, uint32(s.tsrc), uint32(s.tdst))
	}
	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, proto, wild, spl, dpl uint8, tsrc, tdst uint32) {
		l := Label{Src: Addr(src), Dst: Addr(dst), SrcPort: sport, DstPort: dport, Proto: Proto(proto),
			Wildcards: Wild(wild), SrcPrefixLen: spl, DstPrefixLen: dpl}
		rendered := l.String()
		if appended := string(l.AppendTo(nil)); appended != rendered {
			t.Fatalf("AppendTo renders %q, String %q", appended, rendered)
		}
		c := l.Canonical()
		if c.Canonical() != c {
			t.Fatalf("canonicalization not idempotent for %+v: %+v", l, c)
		}
		if c.SrcPrefixLen > 31 || c.DstPrefixLen > 31 {
			t.Fatalf("canonical %+v carries prefix lengths %d/%d", c, c.SrcPrefixLen, c.DstPrefixLen)
		}
		for _, tup := range []Tuple{
			{Src: l.Src, Dst: l.Dst, Proto: l.Proto, SrcPort: l.SrcPort, DstPort: l.DstPort},
			{Src: Addr(tsrc), Dst: Addr(tdst), Proto: l.Proto, SrcPort: l.SrcPort, DstPort: l.DstPort},
		} {
			if l.Matches(tup) != c.Matches(tup) {
				t.Fatalf("canonicalization changed matching of %+v for %+v", tup, l)
			}
		}
		// The reference parser reads a canonical label back, except a
		// concrete protocol 0, which renders "any" and reads as the
		// wildcard, and Wild bits above the five fields, which render as
		// nothing.
		c.Wildcards &= wildAll
		if c.Wildcards&WildProto == 0 && c.Proto == ProtoAny {
			c.Wildcards |= WildProto
		}
		if back, err := parseLabel(c.String()); err != nil || back != c {
			t.Fatalf("%q reads back as %+v, %v; want %+v", c.String(), back, err, c)
		}
	})
}
