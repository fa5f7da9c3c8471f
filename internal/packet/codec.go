package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"aitf/internal/flow"
)

// Wire format (big endian):
//
//	magic(2)=0xA17F  version(1)=3
//	header: src(4) dst(4) proto(1) sport(2) dport(2) ttl(1) payloadLen(2)
//	pathLen(1)  pathLen × { router(4) nonce(8) }
//	msgKind(1)  0 = data packet, otherwise a Message body follows
//
// Label encoding: src(4) dst(4) proto(1) sport(2) dport(2) wildcards(1)
// srcPrefixLen(1) dstPrefixLen(1). Version 2 added the two prefix-length
// bytes so filtering requests can name source/destination prefixes (the
// aggregate filters of §IV); version 3 added the FilterReq txid(8) so
// retransmitted requests can be deduplicated. Older peers are rejected
// by the version check.

const (
	wireMagic   uint16 = 0xA17F
	wireVersion byte   = 3
	labelBytes         = 16

	// MaxPathLen bounds the route-record shim; paths longer than any
	// plausible AS-level route are rejected as malformed.
	MaxPathLen = 64
	// MaxEvidenceLen bounds the evidence path inside a FilterReq.
	MaxEvidenceLen = MaxPathLen
)

// Codec errors.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadMagic    = errors.New("packet: bad magic or version")
	ErrBadMessage  = errors.New("packet: malformed message")
	ErrPathTooLong = errors.New("packet: route record too long")
)

// Marshal encodes the packet into a fresh byte slice.
func Marshal(p *Packet) ([]byte, error) {
	size := 3 + HeaderBytes + 1 + len(p.Path)*RREntryBytes + 1
	if p.Msg != nil {
		size += p.Msg.wireSize() - 1 // kind byte already counted
	}
	return AppendMarshal(make([]byte, 0, size), p)
}

// AppendMarshal appends the packet's wire encoding to dst and returns
// the extended slice, letting senders reuse one buffer across
// datagrams instead of allocating per packet (see wire.Node.SendTo).
func AppendMarshal(dst []byte, p *Packet) ([]byte, error) {
	if len(p.Path) > MaxPathLen {
		return dst, ErrPathTooLong
	}
	b := dst
	b = binary.BigEndian.AppendUint16(b, wireMagic)
	b = append(b, wireVersion)
	b = appendHeader(b, p.Header)
	b = append(b, byte(len(p.Path)))
	for _, e := range p.Path {
		b = binary.BigEndian.AppendUint32(b, uint32(e.Router))
		b = binary.BigEndian.AppendUint64(b, e.Nonce)
	}
	if p.Msg == nil {
		b = append(b, 0)
		return b, nil
	}
	b = append(b, byte(p.Msg.Kind()))
	switch m := p.Msg.(type) {
	case *FilterReq:
		if len(m.Evidence) > MaxEvidenceLen {
			return dst, ErrPathTooLong
		}
		b = append(b, byte(m.Stage), m.Round)
		b = binary.BigEndian.AppendUint64(b, m.Txid)
		b = appendLabel(b, m.Flow)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Duration))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Victim))
		b = binary.BigEndian.AppendUint16(b, uint16(len(m.Evidence)))
		for _, e := range m.Evidence {
			b = binary.BigEndian.AppendUint32(b, uint32(e.Router))
			b = binary.BigEndian.AppendUint64(b, e.Nonce)
		}
	case *VerifyQuery:
		b = appendLabel(b, m.Flow)
		b = binary.BigEndian.AppendUint64(b, m.Nonce)
	case *VerifyReply:
		b = appendLabel(b, m.Flow)
		b = binary.BigEndian.AppendUint64(b, m.Nonce)
	case *Disconnect:
		b = binary.BigEndian.AppendUint32(b, uint32(m.Client))
		b = appendLabel(b, m.Flow)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Penalty))
	case *PushbackReq:
		b = appendLabel(b, m.Aggregate)
		b = binary.BigEndian.AppendUint64(b, m.LimitBps)
		b = append(b, m.Depth)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Duration))
	default:
		return dst, fmt.Errorf("%w: unknown kind %d", ErrBadMessage, p.Msg.Kind())
	}
	return b, nil
}

// UnmarshalInto decodes into p, overwriting its previous contents but
// reusing its Path backing array. Paired with Get/Release it makes the
// receive path's decode allocation-free for data packets at steady
// state (control messages still allocate their Msg body). On error p
// is left in an unspecified-but-releasable state.
func UnmarshalInto(p *Packet, b []byte) error {
	path := p.Path[:0]
	*p = Packet{}
	p.Path = path // keep the reusable backing even on error returns
	r := reader{buf: b}
	if r.u16() != wireMagic || r.u8() != wireVersion {
		if r.err != nil {
			return ErrTruncated
		}
		return ErrBadMagic
	}
	p.Header = r.header()
	n := int(r.u8())
	if n > MaxPathLen {
		return ErrPathTooLong
	}
	for i := 0; i < n; i++ {
		path = append(path, RREntry{Router: flow.Addr(r.u32()), Nonce: r.u64()})
	}
	if n > 0 {
		p.Path = path
	}
	kind := MsgKind(r.u8())
	if r.err != nil {
		return ErrTruncated
	}
	switch kind {
	case 0:
		// data packet
	case KindFilterReq:
		m := &FilterReq{}
		m.Stage = Stage(r.u8())
		m.Round = r.u8()
		m.Txid = r.u64()
		m.Flow = r.label()
		m.Duration = time.Duration(r.u64())
		m.Victim = flow.Addr(r.u32())
		en := int(r.u16())
		if en > MaxEvidenceLen {
			return ErrPathTooLong
		}
		if en > 0 {
			m.Evidence = make([]RREntry, en)
			for i := 0; i < en; i++ {
				m.Evidence[i] = RREntry{Router: flow.Addr(r.u32()), Nonce: r.u64()}
			}
		}
		if m.Stage < StageToVictimGW || m.Stage > StageToAttacker {
			return fmt.Errorf("%w: bad stage %d", ErrBadMessage, m.Stage)
		}
		p.Msg = m
	case KindVerifyQuery:
		p.Msg = &VerifyQuery{Flow: r.label(), Nonce: r.u64()}
	case KindVerifyReply:
		p.Msg = &VerifyReply{Flow: r.label(), Nonce: r.u64()}
	case KindDisconnect:
		p.Msg = &Disconnect{
			Client:  flow.Addr(r.u32()),
			Flow:    r.label(),
			Penalty: time.Duration(r.u64()),
		}
	case KindPushback:
		p.Msg = &PushbackReq{
			Aggregate: r.label(),
			LimitBps:  r.u64(),
			Depth:     r.u8(),
			Duration:  time.Duration(r.u64()),
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadMessage, kind)
	}
	if r.err != nil {
		return ErrTruncated
	}
	if len(r.buf) != r.off {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(r.buf)-r.off)
	}
	return nil
}

func appendHeader(b []byte, h Header) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(h.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(h.Dst))
	b = append(b, byte(h.Proto))
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = append(b, h.TTL)
	b = binary.BigEndian.AppendUint16(b, h.PayloadLen)
	return b
}

func appendLabel(b []byte, l flow.Label) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(l.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(l.Dst))
	b = append(b, byte(l.Proto))
	b = binary.BigEndian.AppendUint16(b, l.SrcPort)
	b = binary.BigEndian.AppendUint16(b, l.DstPort)
	b = append(b, byte(l.Wildcards), l.SrcPrefixLen, l.DstPrefixLen)
	return b
}

// reader is a bounds-checked big-endian cursor; after any failed read
// err is set and subsequent reads return zero.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) header() Header {
	return Header{
		Src:        flow.Addr(r.u32()),
		Dst:        flow.Addr(r.u32()),
		Proto:      flow.Proto(r.u8()),
		SrcPort:    r.u16(),
		DstPort:    r.u16(),
		TTL:        r.u8(),
		PayloadLen: r.u16(),
	}
}

func (r *reader) label() flow.Label {
	return flow.Label{
		Src:          flow.Addr(r.u32()),
		Dst:          flow.Addr(r.u32()),
		Proto:        flow.Proto(r.u8()),
		SrcPort:      r.u16(),
		DstPort:      r.u16(),
		Wildcards:    flow.Wild(r.u8()),
		SrcPrefixLen: r.u8(),
		DstPrefixLen: r.u8(),
	}
}
