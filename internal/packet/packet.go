// Package packet defines the packets exchanged in an AITF network and
// their binary wire encoding.
//
// A packet carries a network header, an optional route-record (RR) shim
// holding one entry per AITF border router traversed (the traceback
// substrate AITF assumes), and either opaque data-plane payload or one
// AITF control message.
package packet

import (
	"sync"
	"time"

	"aitf/internal/flow"
)

// HeaderBytes is the wire size of the fixed network header.
const HeaderBytes = 16

// RREntryBytes is the wire size of one route-record entry.
const RREntryBytes = 12

// Header is the network-layer header of every simulated packet.
type Header struct {
	Src, Dst         flow.Addr
	Proto            flow.Proto
	SrcPort, DstPort uint16
	TTL              uint8
	// PayloadLen is the number of data bytes the packet represents.
	// Data-plane packets in the simulator carry no literal payload;
	// PayloadLen stands in for it when computing bandwidth.
	PayloadLen uint16
}

// Tuple extracts the concrete 5-tuple used for filter matching.
func (h Header) Tuple() flow.Tuple {
	return flow.Tuple{Src: h.Src, Dst: h.Dst, Proto: h.Proto,
		SrcPort: h.SrcPort, DstPort: h.DstPort}
}

// RREntry is one route-record shim entry: the border router that
// forwarded the packet plus a 64-bit authenticator (a keyed PRF of the
// flow under a router-local secret; see traceback.Recorder.Nonce). The
// authenticator lets the router later recognise paths it genuinely
// forwarded.
type RREntry struct {
	Router flow.Addr
	Nonce  uint64
}

// pool recycles Packet shells and their route-record backing arrays.
// Floods push millions of packets through the simulator and the wire
// runtime; without recycling, every one is a fresh allocation (plus one
// more per RR shim), and the GC becomes the real bottleneck of the data
// plane. Constructors draw from the pool, and both runtimes keep one
// ownership rule: the consumer releases. Whoever ends a packet's
// journey calls Release: a node that drops it (TTL expiry, no route,
// queue overflow, a filter), a host or router that absorbs it, a
// gateway that consumes a control message addressed to itself. A
// caller that wants a packet's fields after handing it on copies them
// first.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns an empty packet from the pool. Header and Msg are zero;
// Path is empty but may retain capacity from an earlier life.
func Get() *Packet { return pool.Get().(*Packet) }

// Release returns p to the pool, keeping its Path backing array for
// reuse. It must be the packet's last use: the caller may retain
// copies of field values, but not p itself, p.Path, or any subslice of
// it. Messages are not recycled (they are shared by convention).
func (p *Packet) Release() {
	path := p.Path[:0]
	*p = Packet{}
	p.Path = path
	pool.Put(p)
}

// Packet is the unit of transmission. The zero Packet is not valid; use
// NewData or NewControl.
type Packet struct {
	Header
	// Path is the route-record shim, ordered from the AITF node closest
	// to the source (appended first) to the node closest to the
	// destination.
	Path []RREntry
	// Msg is non-nil only for AITF control packets (Proto == ProtoAITF).
	Msg Message
}

// NewData builds a data-plane packet of payloadLen bytes.
func NewData(src, dst flow.Addr, proto flow.Proto, sport, dport uint16, payloadLen int) *Packet {
	if payloadLen < 0 {
		payloadLen = 0
	}
	if payloadLen > 0xffff {
		payloadLen = 0xffff
	}
	p := Get()
	p.Header = Header{
		Src: src, Dst: dst, Proto: proto,
		SrcPort: sport, DstPort: dport,
		TTL: DefaultTTL, PayloadLen: uint16(payloadLen),
	}
	return p
}

// NewControl builds an AITF control packet carrying msg.
func NewControl(src, dst flow.Addr, msg Message) *Packet {
	p := Get()
	p.Header = Header{Src: src, Dst: dst, Proto: flow.ProtoAITF, TTL: DefaultTTL}
	p.Msg = msg
	return p
}

// DefaultTTL is the initial hop limit of freshly built packets.
const DefaultTTL = 64

// WireSize is the packet's size in bytes for link-serialization and
// bandwidth purposes: header + RR shim + payload or message body.
func (p *Packet) WireSize() int {
	n := HeaderBytes + len(p.Path)*RREntryBytes
	if p.Msg != nil {
		n += p.Msg.wireSize()
	} else {
		n += int(p.PayloadLen)
	}
	return n
}

// RecordRoute appends a route-record entry for router with the given
// authenticator nonce.
func (p *Packet) RecordRoute(router flow.Addr, nonce uint64) {
	p.Path = append(p.Path, RREntry{Router: router, Nonce: nonce})
}

// IsControl reports whether the packet carries an AITF message.
func (p *Packet) IsControl() bool { return p.Msg != nil }

// Message is implemented by every AITF control message.
type Message interface {
	// Kind discriminates the message for encoding and dispatch.
	Kind() MsgKind
	wireSize() int
}

// MsgKind discriminates AITF control messages on the wire.
type MsgKind uint8

// Control message kinds.
const (
	KindFilterReq MsgKind = iota + 1
	KindVerifyQuery
	KindVerifyReply
	KindDisconnect
	KindPushback
)

func (k MsgKind) String() string {
	switch k {
	case KindFilterReq:
		return "filter-request"
	case KindVerifyQuery:
		return "verify-query"
	case KindVerifyReply:
		return "verify-reply"
	case KindDisconnect:
		return "disconnect"
	case KindPushback:
		return "pushback"
	default:
		return "unknown"
	}
}

// Stage says which role a filtering request is addressed to (the
// protocol's "type field", AITF §II-C).
type Stage uint8

// Filtering-request stages.
const (
	// StageToVictimGW: victim (or an escalating gateway) asks its own
	// gateway to block a flow.
	StageToVictimGW Stage = iota + 1
	// StageToAttackerGW: the victim's gateway asks the attacker's
	// gateway to take over filtering.
	StageToAttackerGW
	// StageToAttacker: the attacker's gateway tells its client to stop
	// the flow or be disconnected.
	StageToAttacker
)

func (s Stage) String() string {
	switch s {
	case StageToVictimGW:
		return "to-victim-gw"
	case StageToAttackerGW:
		return "to-attacker-gw"
	case StageToAttacker:
		return "to-attacker"
	default:
		return "stage?"
	}
}

// FilterReq asks the receiver to block Flow for Duration. It is the only
// message of the basic protocol (§II-C); the handshake messages below
// come from the anti-spoofing extension (§II-E).
type FilterReq struct {
	Stage Stage
	Flow  flow.Label
	// Duration is T, the filter lifetime being requested.
	Duration time.Duration
	// Round is the escalation round, starting at 1. Round r targets the
	// r-th AITF node on the attack path counted from the attacker.
	Round uint8
	// Victim is the original requester on whose behalf filtering is
	// sought; handshake queries are addressed to it.
	Victim flow.Addr
	// Evidence is the route record of a sample packet of the undesired
	// flow, proving (via nonces) which border routers forwarded it and
	// telling the victim's gateway who the attacker's gateway is.
	Evidence []RREntry
	// Txid identifies one logical send for retransmission dedup: every
	// attempt of the same request carries the same nonzero Txid, so a
	// receiver can drop duplicates without re-running side effects.
	// Zero means "no dedup" (senders without a retransmission engine).
	Txid uint64
}

// Kind implements Message.
func (*FilterReq) Kind() MsgKind { return KindFilterReq }

func (m *FilterReq) wireSize() int {
	return 1 + 1 + 1 + 8 + labelBytes + 8 + 4 + 2 + len(m.Evidence)*RREntryBytes
}

// VerifyQuery is the attacker-gateway half of the 3-way handshake:
// "do you really not want this flow?" addressed to the victim.
type VerifyQuery struct {
	Flow  flow.Label
	Nonce uint64
}

// Kind implements Message.
func (*VerifyQuery) Kind() MsgKind { return KindVerifyQuery }

func (m *VerifyQuery) wireSize() int { return 1 + labelBytes + 8 }

// VerifyReply echoes the query's flow label and nonce back to the
// attacker's gateway. A matching nonce proves the requester speaks for a
// node on the flow's path (off-path snooping is assumed impossible).
type VerifyReply struct {
	Flow  flow.Label
	Nonce uint64
}

// Kind implements Message.
func (*VerifyReply) Kind() MsgKind { return KindVerifyReply }

func (m *VerifyReply) wireSize() int { return 1 + labelBytes + 8 }

// Disconnect notifies a client that its provider has disconnected it for
// non-compliance (failing to stop an undesired flow within the grace
// period). Informational; enforcement is the provider dropping traffic.
type Disconnect struct {
	// Client is the node being disconnected.
	Client flow.Addr
	// Flow is the undesired flow that triggered the disconnection.
	Flow flow.Label
	// Penalty is how long the disconnection lasts.
	Penalty time.Duration
}

// Kind implements Message.
func (*Disconnect) Kind() MsgKind { return KindDisconnect }

func (m *Disconnect) wireSize() int { return 1 + 4 + labelBytes + 8 }

// PushbackReq is the hop-by-hop rate-limit request of the pushback
// baseline [MBF+01], implemented for the paper's Section V comparison.
// It asks the receiving (upstream) router to rate-limit Aggregate to
// LimitBps for Duration and to recurse if it cannot.
type PushbackReq struct {
	Aggregate flow.Label
	// LimitBps is the allowed rate in bytes/second.
	LimitBps uint64
	// Depth counts hops from the originally congested router.
	Depth uint8
	// Duration is the rate-limit lifetime.
	Duration time.Duration
}

// Kind implements Message.
func (*PushbackReq) Kind() MsgKind { return KindPushback }

func (m *PushbackReq) wireSize() int { return 1 + labelBytes + 8 + 1 + 8 }
