package flow

import "testing"

// FuzzLabelRoundTrip throws arbitrary strings at ParseLabel and checks
// the parse/format contract on everything that parses: String must
// agree with AppendTo and re-parse to the same canonical label, and
// canonicalization must be idempotent and matching-preserving. Interesting inputs found by the
// fuzzer are kept under testdata/fuzz/FuzzLabelRoundTrip.
func FuzzLabelRoundTrip(f *testing.F) {
	seeds := []string{
		"1.2.3.4->5.6.7.8 proto=udp sport=1 dport=2",
		"*->10.0.0.9 proto=* sport=* dport=80",
		"240.1.2.0/24->10.0.0.9 proto=* sport=* dport=*",
		"9.8.7.0/25->6.5.0.0/17 proto=tcp sport=1 dport=2",
		"1.2.3.4/32->5.6.7.8 proto=aitf sport=0 dport=0",
		"*->* proto=* sport=* dport=*",
		"255.255.255.255/1->0.0.0.0 proto=proto99 sport=65535 dport=0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		l, err := ParseLabel(s)
		if err != nil {
			return // rejection is fine; crashing or mis-round-tripping is not
		}
		// Parsed labels never carry out-of-range prefix lengths.
		if l.SrcPrefixLen > 31 || l.DstPrefixLen > 31 {
			t.Fatalf("parse %q produced prefix lengths %d/%d", s, l.SrcPrefixLen, l.DstPrefixLen)
		}
		rendered := l.String()
		if appended := string(l.AppendTo(nil)); appended != rendered {
			t.Fatalf("AppendTo renders %q, String %q", appended, rendered)
		}
		back, err := ParseLabel(rendered)
		if err != nil {
			t.Fatalf("String of parsed label does not re-parse: %q -> %q: %v", s, rendered, err)
		}
		if back.Canonical() != l.Canonical() {
			t.Fatalf("round trip drifted: %q -> %q: %+v vs %+v", s, rendered, back.Canonical(), l.Canonical())
		}
		c := l.Canonical()
		if c.Canonical() != c {
			t.Fatalf("canonicalization not idempotent for %q: %+v", s, c)
		}
		tup := Tuple{Src: l.Src, Dst: l.Dst, Proto: l.Proto, SrcPort: l.SrcPort, DstPort: l.DstPort}
		if l.Matches(tup) != c.Matches(tup) {
			t.Fatalf("canonicalization changed matching for %q", s)
		}
	})
}
