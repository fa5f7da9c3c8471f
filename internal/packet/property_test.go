package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aitf/internal/flow"
)

// randLabel draws an arbitrary (canonicalised) flow label, including
// source/destination prefix shapes.
func randLabel(r *rand.Rand) flow.Label {
	l := flow.Label{
		Src:       flow.Addr(r.Uint32()),
		Dst:       flow.Addr(r.Uint32()),
		Proto:     flow.Proto(r.Intn(256)),
		SrcPort:   uint16(r.Intn(65536)),
		DstPort:   uint16(r.Intn(65536)),
		Wildcards: flow.Wild(r.Intn(32)),
	}
	if r.Intn(3) == 0 {
		l.SrcPrefixLen = uint8(r.Intn(32))
	}
	if r.Intn(3) == 0 {
		l.DstPrefixLen = uint8(r.Intn(32))
	}
	return l.Canonical()
}

func randPath(r *rand.Rand, max int) []RREntry {
	n := r.Intn(max + 1)
	out := make([]RREntry, n)
	for i := range out {
		out[i] = RREntry{Router: flow.Addr(r.Uint32()), Nonce: r.Uint64()}
	}
	return out
}

// TestPropertyRoundTripDataPackets: arbitrary data packets survive
// Marshal/Unmarshal byte-exactly.
func TestPropertyRoundTripDataPackets(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		p := &Packet{
			Header: Header{
				Src:        flow.Addr(r.Uint32()),
				Dst:        flow.Addr(r.Uint32()),
				Proto:      flow.Proto(r.Intn(256)),
				SrcPort:    uint16(r.Intn(65536)),
				DstPort:    uint16(r.Intn(65536)),
				TTL:        uint8(r.Intn(256)),
				PayloadLen: uint16(r.Intn(65536)),
			},
			Path: randPath(r, MaxPathLen),
		}
		b, err := Marshal(p)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		got, err := unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if got.Header != p.Header {
			t.Fatalf("header mismatch: %+v vs %+v", got.Header, p.Header)
		}
		if len(got.Path) != len(p.Path) {
			t.Fatalf("path length mismatch")
		}
		for j := range p.Path {
			if got.Path[j] != p.Path[j] {
				t.Fatalf("path entry %d mismatch", j)
			}
		}
		// Re-marshalling the decoded packet yields identical bytes.
		b2, err := Marshal(got)
		if err != nil {
			t.Fatalf("re-Marshal: %v", err)
		}
		if string(b) != string(b2) {
			t.Fatal("encoding not canonical")
		}
	}
}

// TestPropertyRoundTripFilterReqs: arbitrary filtering requests
// round-trip, including evidence paths and durations.
func TestPropertyRoundTripFilterReqs(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 500; i++ {
		m := &FilterReq{
			Stage:    Stage(1 + r.Intn(3)),
			Flow:     randLabel(r),
			Duration: time.Duration(r.Int63n(int64(time.Hour))),
			Round:    uint8(r.Intn(256)),
			Victim:   flow.Addr(r.Uint32()),
			Evidence: randPath(r, 16),
			Txid:     r.Uint64(),
		}
		p := NewControl(flow.Addr(r.Uint32()), flow.Addr(r.Uint32()), m)
		b, err := Marshal(p)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		got, err := unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		gm := got.Msg.(*FilterReq)
		if gm.Stage != m.Stage || gm.Flow != m.Flow || gm.Duration != m.Duration ||
			gm.Round != m.Round || gm.Victim != m.Victim || gm.Txid != m.Txid ||
			len(gm.Evidence) != len(m.Evidence) {
			t.Fatalf("mismatch: %+v vs %+v", gm, m)
		}
	}
}

// TestPropertyWireSizeMatchesEncoding: WireSize plus framing overhead
// always equals the encoded length, for every message kind.
func TestPropertyWireSizeMatchesEncoding(t *testing.T) {
	f := func(src, dst uint32, nonce uint64, kindSel uint8, pathLen uint8) bool {
		r := rand.New(rand.NewSource(int64(nonce)))
		var msg Message
		switch kindSel % 4 {
		case 0:
			msg = &FilterReq{Stage: StageToVictimGW, Flow: randLabel(r),
				Duration: time.Minute, Victim: flow.Addr(dst),
				Evidence: randPath(r, 8)}
		case 1:
			msg = &VerifyQuery{Flow: randLabel(r), Nonce: nonce}
		case 2:
			msg = &VerifyReply{Flow: randLabel(r), Nonce: nonce}
		case 3:
			msg = &Disconnect{Client: flow.Addr(src), Flow: randLabel(r), Penalty: time.Minute}
		}
		p := NewControl(flow.Addr(src), flow.Addr(dst), msg)
		p.Path = randPath(r, int(pathLen%MaxPathLen))
		b, err := Marshal(p)
		if err != nil {
			return false
		}
		// 3 bytes magic+version, 1 byte path length.
		return len(b) == 3+1+p.WireSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
