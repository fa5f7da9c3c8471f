package packet

import (
	"testing"

	"aitf/internal/flow"
)

// fuzzSeedPackets builds one representative packet per message kind,
// including prefix-granular labels, for the codec fuzz corpus.
func fuzzSeedPackets() [][]byte {
	src, dst := flow.MakeAddr(10, 0, 0, 1), flow.MakeAddr(10, 9, 9, 9)
	prefix := flow.SrcPrefixLabel(flow.MakeAddr(240, 1, 2, 0), 24, dst)
	ps := []*Packet{
		NewData(src, dst, flow.ProtoUDP, 1000, 80, 512),
		NewControl(src, dst, &FilterReq{Stage: StageToVictimGW, Flow: prefix,
			Duration: 1 << 30, Round: 3, Victim: dst,
			Evidence: []RREntry{{Router: src, Nonce: 7}}}),
		NewControl(src, dst, &VerifyQuery{Flow: prefix, Nonce: 99}),
		NewControl(src, dst, &VerifyReply{Flow: flow.PairLabel(src, dst), Nonce: 99}),
		NewControl(src, dst, &Disconnect{Client: src, Flow: prefix, Penalty: 1 << 20}),
		NewControl(src, dst, &PushbackReq{Aggregate: dstPrefixLabel(src, dst, 16),
			LimitBps: 1e6, Depth: 2, Duration: 1 << 25}),
	}
	out := make([][]byte, 0, len(ps)+1)
	for _, p := range ps {
		b, err := Marshal(p)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	rr := NewData(src, dst, flow.ProtoTCP, 1, 2, 9)
	rr.RecordRoute(flow.MakeAddr(10, 0, 0, 254), 0x1234)
	rr.RecordRoute(flow.MakeAddr(10, 9, 0, 254), 0x5678)
	b, _ := Marshal(rr)
	return append(out, b)
}

// FuzzCodecRoundTrip feeds arbitrary bytes to UnmarshalInto and checks
// the decode/encode contract on everything that decodes: re-marshalling
// reproduces the input byte-for-byte (the encoding is canonical), and
// decoding never panics or over-reads. Interesting inputs found by the
// fuzzer are kept under testdata/fuzz/FuzzCodecRoundTrip.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, b := range fuzzSeedPackets() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var p Packet
		if err := UnmarshalInto(&p, b); err != nil {
			return // malformed input rejected: fine
		}
		out, err := Marshal(&p)
		if err != nil {
			t.Fatalf("decoded packet does not re-encode: %v (%+v)", err, p)
		}
		if string(out) != string(b) {
			t.Fatalf("encoding not canonical:\n in  %x\n out %x", b, out)
		}
		// The packet's own size accounting must agree with the encoder
		// for control packets (data packets carry only a simulated
		// PayloadLen, never literal payload bytes).
		if p.IsControl() {
			if want := 3 + 1 + p.WireSize(); len(out) != want {
				t.Fatalf("WireSize drift: encoded %d bytes, WireSize says %d", len(out), want)
			}
		}
	})
}

// dstPrefixLabel matches all traffic from src to the destination prefix
// dst/bits, any protocol and ports.
func dstPrefixLabel(src, dst flow.Addr, bits uint8) flow.Label {
	return flow.Label{Src: src, Dst: dst, DstPrefixLen: bits,
		Wildcards: flow.WildProto | flow.WildSrcPort | flow.WildDstPort}.Canonical()
}
