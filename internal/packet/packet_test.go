package packet

import (
	"testing"
	"time"

	"aitf/internal/flow"
)

var (
	srcA = flow.MakeAddr(10, 0, 0, 2)
	dstA = flow.MakeAddr(10, 9, 0, 7)
	gw1  = flow.MakeAddr(10, 0, 0, 1)
	gw2  = flow.MakeAddr(10, 1, 0, 1)
)

func TestNewDataDefaults(t *testing.T) {
	p := NewData(srcA, dstA, flow.ProtoUDP, 4000, 80, 1200)
	if p.TTL != DefaultTTL {
		t.Fatalf("TTL = %d", p.TTL)
	}
	if p.IsControl() {
		t.Fatal("data packet reported as control")
	}
	if p.PayloadLen != 1200 {
		t.Fatalf("PayloadLen = %d", p.PayloadLen)
	}
	if got := p.Tuple(); got != flow.TupleOf(srcA, dstA, flow.ProtoUDP, 4000, 80) {
		t.Fatalf("Tuple = %+v", got)
	}
}

func TestPayloadLenClamping(t *testing.T) {
	if p := NewData(srcA, dstA, flow.ProtoUDP, 1, 2, -5); p.PayloadLen != 0 {
		t.Fatalf("negative payload clamped to %d", p.PayloadLen)
	}
	if p := NewData(srcA, dstA, flow.ProtoUDP, 1, 2, 1<<20); p.PayloadLen != 0xffff {
		t.Fatalf("huge payload clamped to %d", p.PayloadLen)
	}
}

func TestWireSize(t *testing.T) {
	p := NewData(srcA, dstA, flow.ProtoUDP, 1, 2, 1000)
	if p.WireSize() != HeaderBytes+1000 {
		t.Fatalf("WireSize = %d", p.WireSize())
	}
	p.RecordRoute(gw1, 1)
	p.RecordRoute(gw2, 2)
	if p.WireSize() != HeaderBytes+2*RREntryBytes+1000 {
		t.Fatalf("WireSize with path = %d", p.WireSize())
	}
	c := NewControl(srcA, dstA, &VerifyQuery{Flow: flow.PairLabel(srcA, dstA), Nonce: 9})
	if c.WireSize() != HeaderBytes+1+16+8 {
		t.Fatalf("control WireSize = %d", c.WireSize())
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewData(srcA, dstA, flow.ProtoUDP, 1, 2, 100)
	p.RecordRoute(gw1, 11)
	q := clone(t, p)
	q.RecordRoute(gw2, 22)
	q.TTL--
	if len(p.Path) != 1 {
		t.Fatalf("clone mutated original path: %v", p.Path)
	}
	if p.TTL != DefaultTTL {
		t.Fatal("clone mutated original TTL")
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	b, err := Marshal(p)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return got
}

func TestRoundTripData(t *testing.T) {
	p := NewData(srcA, dstA, flow.ProtoTCP, 1234, 80, 512)
	p.TTL = 17
	p.RecordRoute(gw1, 0xdeadbeef)
	p.RecordRoute(gw2, 42)
	got := roundTrip(t, p)
	if got.Header != p.Header {
		t.Fatalf("header mismatch: %+v vs %+v", got.Header, p.Header)
	}
	if len(got.Path) != 2 || got.Path[0] != p.Path[0] || got.Path[1] != p.Path[1] {
		t.Fatalf("path mismatch: %v vs %v", got.Path, p.Path)
	}
	if got.Msg != nil {
		t.Fatal("data packet decoded with message")
	}
}

func TestRoundTripFilterReq(t *testing.T) {
	m := &FilterReq{
		Stage:    StageToAttackerGW,
		Flow:     flow.PairLabel(srcA, dstA),
		Duration: time.Minute,
		Round:    3,
		Victim:   dstA,
		Evidence: []RREntry{{Router: gw1, Nonce: 7}, {Router: gw2, Nonce: 8}},
		Txid:     0xdeadbeefcafe,
	}
	p := NewControl(gw2, gw1, m)
	got := roundTrip(t, p)
	gm, ok := got.Msg.(*FilterReq)
	if !ok {
		t.Fatalf("decoded %T", got.Msg)
	}
	if gm.Stage != m.Stage || gm.Round != m.Round || gm.Duration != m.Duration ||
		gm.Victim != m.Victim || gm.Flow != m.Flow || gm.Txid != m.Txid {
		t.Fatalf("FilterReq mismatch: %+v vs %+v", gm, m)
	}
	if len(gm.Evidence) != 2 || gm.Evidence[0] != m.Evidence[0] || gm.Evidence[1] != m.Evidence[1] {
		t.Fatalf("evidence mismatch: %v", gm.Evidence)
	}
}

func TestRoundTripFilterReqEmptyEvidence(t *testing.T) {
	m := &FilterReq{Stage: StageToAttacker, Flow: fromSource(srcA),
		Duration: 30 * time.Second, Round: 1, Victim: dstA}
	got := roundTrip(t, NewControl(gw1, srcA, m))
	gm := got.Msg.(*FilterReq)
	if len(gm.Evidence) != 0 {
		t.Fatalf("evidence = %v, want empty", gm.Evidence)
	}
	if gm.Flow.Canonical() != m.Flow.Canonical() {
		t.Fatalf("flow mismatch")
	}
}

func TestRoundTripVerify(t *testing.T) {
	q := &VerifyQuery{Flow: flow.PairLabel(srcA, dstA), Nonce: 0xfeedface}
	got := roundTrip(t, NewControl(gw1, dstA, q))
	gq := got.Msg.(*VerifyQuery)
	if *gq != *q {
		t.Fatalf("query mismatch: %+v vs %+v", gq, q)
	}
	r := &VerifyReply{Flow: flow.PairLabel(srcA, dstA), Nonce: 0xfeedface}
	got = roundTrip(t, NewControl(dstA, gw1, r))
	gr := got.Msg.(*VerifyReply)
	if *gr != *r {
		t.Fatalf("reply mismatch: %+v vs %+v", gr, r)
	}
}

func TestRoundTripDisconnect(t *testing.T) {
	d := &Disconnect{Client: srcA, Flow: fromSource(srcA), Penalty: 5 * time.Minute}
	got := roundTrip(t, NewControl(gw1, srcA, d))
	gd := got.Msg.(*Disconnect)
	if *gd != *d {
		t.Fatalf("disconnect mismatch: %+v vs %+v", gd, d)
	}
}

func TestMarshalSizeMatchesWireSizeEstimate(t *testing.T) {
	// Control messages: encoded size must equal 3 (magic+ver) + WireSize
	// + 1 (path len byte) - payload accounting differences for data.
	msgs := []Message{
		&FilterReq{Stage: StageToVictimGW, Flow: flow.PairLabel(srcA, dstA),
			Duration: time.Minute, Round: 1, Victim: dstA,
			Evidence: []RREntry{{Router: gw1, Nonce: 1}}},
		&VerifyQuery{Flow: flow.PairLabel(srcA, dstA), Nonce: 1},
		&VerifyReply{Flow: flow.PairLabel(srcA, dstA), Nonce: 1},
		&Disconnect{Client: srcA, Flow: fromSource(srcA), Penalty: time.Minute},
	}
	for _, m := range msgs {
		p := NewControl(gw1, gw2, m)
		b, err := Marshal(p)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", m.Kind(), err)
		}
		want := 3 + 1 + p.WireSize()
		if len(b) != want {
			t.Errorf("%v: encoded %d bytes, want %d", m.Kind(), len(b), want)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	p := NewControl(gw1, gw2, &VerifyQuery{Flow: flow.PairLabel(srcA, dstA), Nonce: 5})
	good, _ := Marshal(p)

	if _, err := unmarshal(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := unmarshal(good[:5]); err == nil {
		t.Error("truncated input accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0xff
	if _, err := unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	trailing := append(append([]byte(nil), good...), 0x00)
	if _, err := unmarshal(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown message kind.
	unknown := append([]byte(nil), good...)
	unknown[3+HeaderBytes] = 0    // path len stays 0
	unknown[3+HeaderBytes+1] = 99 // kind byte
	if _, err := unmarshal(unknown[:3+HeaderBytes+2]); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestUnmarshalRejectsBadStage(t *testing.T) {
	m := &FilterReq{Stage: StageToVictimGW, Flow: flow.PairLabel(srcA, dstA),
		Duration: time.Minute, Round: 1, Victim: dstA}
	b, _ := Marshal(NewControl(gw1, gw2, m))
	// Stage byte is right after kind byte.
	idx := 3 + HeaderBytes + 1 + 1
	b[idx] = 77
	if _, err := unmarshal(b); err == nil {
		t.Fatal("bad stage accepted")
	}
}

func TestMarshalRejectsOverlongPath(t *testing.T) {
	p := NewData(srcA, dstA, flow.ProtoUDP, 1, 2, 10)
	for i := 0; i < MaxPathLen+1; i++ {
		p.RecordRoute(gw1, uint64(i))
	}
	if _, err := Marshal(p); err == nil {
		t.Fatal("overlong path accepted")
	}
}

func TestUnmarshalRejectsOverlongEvidence(t *testing.T) {
	m := &FilterReq{Stage: StageToVictimGW, Flow: flow.PairLabel(srcA, dstA),
		Duration: time.Minute, Round: 1, Victim: dstA,
		Evidence: []RREntry{{Router: gw1, Nonce: 1}}}
	b, _ := Marshal(NewControl(gw1, gw2, m))
	// Evidence length field: after kind(1) stage(1) round(1) txid(8)
	// label(16) duration(8) victim(4).
	idx := 3 + HeaderBytes + 1 + 1 + 1 + 1 + 8 + 16 + 8 + 4
	b[idx] = 0xff
	b[idx+1] = 0xff
	if _, err := unmarshal(b); err == nil {
		t.Fatal("overlong evidence accepted")
	}
}

// Fuzz-style robustness: Unmarshal must never panic on mangled inputs.
func TestUnmarshalNeverPanics(t *testing.T) {
	m := &FilterReq{Stage: StageToAttackerGW, Flow: flow.PairLabel(srcA, dstA),
		Duration: time.Minute, Round: 2, Victim: dstA,
		Evidence: []RREntry{{Router: gw1, Nonce: 1}, {Router: gw2, Nonce: 2}}}
	good, _ := Marshal(NewControl(gw1, gw2, m))
	for cut := 0; cut <= len(good); cut++ {
		unmarshal(good[:cut]) // must not panic
	}
	for i := 0; i < len(good); i++ {
		for _, v := range []byte{0x00, 0x01, 0x7f, 0xff} {
			mut := append([]byte(nil), good...)
			mut[i] = v
			unmarshal(mut) // must not panic
		}
	}
}

func TestKindStrings(t *testing.T) {
	if KindFilterReq.String() == "unknown" || KindVerifyQuery.String() == "unknown" ||
		KindVerifyReply.String() == "unknown" || KindDisconnect.String() == "unknown" {
		t.Fatal("named kinds must not stringify to unknown")
	}
	if MsgKind(99).String() != "unknown" {
		t.Fatal("unnamed kind should stringify to unknown")
	}
	for _, s := range []Stage{StageToVictimGW, StageToAttackerGW, StageToAttacker} {
		if s.String() == "stage?" {
			t.Fatal("named stage must stringify")
		}
	}
}

func BenchmarkMarshalFilterReq(b *testing.B) {
	m := &FilterReq{Stage: StageToAttackerGW, Flow: flow.PairLabel(srcA, dstA),
		Duration: time.Minute, Round: 1, Victim: dstA,
		Evidence: []RREntry{{Router: gw1, Nonce: 1}, {Router: gw2, Nonce: 2}}}
	p := NewControl(gw1, gw2, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalFilterReq(b *testing.B) {
	m := &FilterReq{Stage: StageToAttackerGW, Flow: flow.PairLabel(srcA, dstA),
		Duration: time.Minute, Round: 1, Victim: dstA,
		Evidence: []RREntry{{Router: gw1, Nonce: 1}, {Router: gw2, Nonce: 2}}}
	buf, _ := Marshal(NewControl(gw1, gw2, m))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// fromSource matches all traffic from src regardless of destination.
func fromSource(src flow.Addr) flow.Label {
	return flow.Label{Src: src, Wildcards: flow.WildDst | flow.WildProto | flow.WildSrcPort | flow.WildDstPort}
}

// unmarshal decodes b into a fresh packet.
func unmarshal(b []byte) (*Packet, error) {
	var p Packet
	return &p, UnmarshalInto(&p, b)
}
