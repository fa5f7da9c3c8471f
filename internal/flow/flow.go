// Package flow defines wildcardable flow labels.
//
// A flow label captures "the common characteristics of a traffic flow"
// (AITF §II-A), e.g. "all packets with IP source address S and IP
// destination address D". Labels support per-field wildcards so a single
// filtering request can cover a protocol, a port, or an entire source
// prefix.
package flow

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is a 32-bit network address in the simulated address space. It is
// formatted like an IPv4 dotted quad but carries no global meaning.
type Addr uint32

// MakeAddr assembles an address from four octets.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad address such as "10.0.3.1".
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("flow: address %q: want four octets", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("flow: address %q: %v", s, err)
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), nil
}

// String renders the address as a dotted quad.
func (a Addr) String() string {
	var buf [15]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the dotted quad that String renders to b and returns
// the extended slice, as strconv.AppendInt does: it allocates only when
// b lacks room for the 15 bytes an address can take. It is the form for
// callers that render many addresses into one buffer (a trace hash, a
// log line).
func (a Addr) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(a)), 10)
}

// Mask keeps the top bits of the address and zeroes the rest; bits >= 32
// is the identity.
func (a Addr) Mask(bits uint8) Addr {
	if bits >= 32 {
		return a
	}
	return a &^ (1<<(32-bits) - 1)
}

// Proto identifies a transport protocol in the simulated stack.
type Proto uint8

// Transport protocols understood by the simulator. ProtoAITF carries
// AITF control messages; everything else is data-plane traffic.
const (
	ProtoAny  Proto = 0 // wildcard in labels; never appears on the wire
	ProtoUDP  Proto = 17
	ProtoTCP  Proto = 6
	ProtoICMP Proto = 1
	ProtoAITF Proto = 253
)

func (p Proto) String() string {
	if s := p.name(); s != "" {
		return s
	}
	return "proto" + strconv.Itoa(int(p))
}

// name is the protocol's mnemonic, or "" when it renders by number.
func (p Proto) name() string {
	switch p {
	case ProtoAny:
		return "any"
	case ProtoUDP:
		return "udp"
	case ProtoTCP:
		return "tcp"
	case ProtoICMP:
		return "icmp"
	case ProtoAITF:
		return "aitf"
	}
	return ""
}

// Wild flags mark which label fields are wildcards. A set bit means
// "match anything" for that field.
type Wild uint8

// Wildcard bits for each Label field.
const (
	WildSrc Wild = 1 << iota
	WildDst
	WildProto
	WildSrcPort
	WildDstPort
)

// Label is a wildcardable 5-tuple. A Label with every Wild bit set
// matches every packet; the zero Label with no wildcards matches only
// the all-zero tuple.
//
// The address fields additionally support prefix granularity: a
// SrcPrefixLen (DstPrefixLen) in [1, 31] turns Src (Dst) into a prefix
// matching every address that shares its top N bits — the coarser
// filter shape AITF gateways fall back to under filter-table pressure
// (§II, §IV). 0 means the full /32 address; 32 is equivalent to 0 and
// canonicalizes to it; the prefix length is ignored (and canonicalizes
// to 0) when the corresponding Wild bit is set.
//
// Layout: the fields are declared widest first, so a Label is 16 bytes
// with no padding (TestLabelLayout). A padding-free comparable struct
// is hashed and compared as one block of memory, which is what every
// Label-keyed map and every == on the hot path does; declared in 5-tuple
// order it padded to 20 bytes and each map access called a generated
// per-field hash. Keep new fields in this rule.
type Label struct {
	Src, Dst                   Addr
	SrcPort, DstPort           uint16
	Proto                      Proto
	Wildcards                  Wild
	SrcPrefixLen, DstPrefixLen uint8
}

// Exact returns a fully specified (no wildcard) label.
func Exact(src, dst Addr, proto Proto, sport, dport uint16) Label {
	return Label{Src: src, Dst: dst, Proto: proto, SrcPort: sport, DstPort: dport}
}

// PairLabel is the canonical AITF label used throughout the paper: all
// packets from src to dst, any protocol, any ports.
func PairLabel(src, dst Addr) Label {
	return Label{Src: src, Dst: dst, Wildcards: WildProto | WildSrcPort | WildDstPort}
}

// ToDestination matches all traffic addressed to dst.
func ToDestination(dst Addr) Label {
	return Label{Dst: dst, Wildcards: WildSrc | WildProto | WildSrcPort | WildDstPort}
}

// SrcPrefixLabel matches all traffic from the source prefix src/bits to
// dst, any protocol and ports: the aggregate a gateway installs when it
// coalesces sibling pair filters (§IV). bits is clamped to [1, 32];
// 32 degenerates to PairLabel.
func SrcPrefixLabel(src Addr, bits uint8, dst Addr) Label {
	l := PairLabel(src, dst)
	l.SrcPrefixLen = bits
	return l.Canonical()
}

// srcBits is the effective source prefix length: 0 for a wildcarded
// source, 32 for a full host address, the prefix length otherwise.
func (l Label) srcBits() uint8 {
	if l.Wildcards&WildSrc != 0 {
		return 0
	}
	if l.SrcPrefixLen == 0 || l.SrcPrefixLen >= 32 {
		return 32
	}
	return l.SrcPrefixLen
}

// dstBits mirrors srcBits for the destination field.
func (l Label) dstBits() uint8 {
	if l.Wildcards&WildDst != 0 {
		return 0
	}
	if l.DstPrefixLen == 0 || l.DstPrefixLen >= 32 {
		return 32
	}
	return l.DstPrefixLen
}

// CoversSrc reports whether the label's source field covers addr
// (wildcard, containing prefix, or equal host address).
func (l Label) CoversSrc(a Addr) bool {
	b := l.srcBits()
	return l.Src.Mask(b) == a.Mask(b)
}

// Tuple is a concrete packet 5-tuple to be matched against labels.
type Tuple struct {
	Src, Dst         Addr
	Proto            Proto
	SrcPort, DstPort uint16
}

// TupleOf builds a Tuple; it exists for symmetry with Exact.
func TupleOf(src, dst Addr, proto Proto, sport, dport uint16) Tuple {
	return Tuple{Src: src, Dst: dst, Proto: proto, SrcPort: sport, DstPort: dport}
}

// ExactLabel converts the tuple into a fully specified label.
func (t Tuple) ExactLabel() Label {
	return Exact(t.Src, t.Dst, t.Proto, t.SrcPort, t.DstPort)
}

// Matches reports whether the tuple is covered by the label.
func (l Label) Matches(t Tuple) bool {
	if l.Wildcards&WildSrc == 0 {
		if b := l.srcBits(); l.Src.Mask(b) != t.Src.Mask(b) {
			return false
		}
	}
	if l.Wildcards&WildDst == 0 {
		if b := l.dstBits(); l.Dst.Mask(b) != t.Dst.Mask(b) {
			return false
		}
	}
	if l.Wildcards&WildProto == 0 && l.Proto != t.Proto {
		return false
	}
	if l.Wildcards&WildSrcPort == 0 && l.SrcPort != t.SrcPort {
		return false
	}
	if l.Wildcards&WildDstPort == 0 && l.DstPort != t.DstPort {
		return false
	}
	return true
}

// Covers reports whether every tuple matched by other is also matched by
// l (label subsumption). Used to avoid installing redundant filters and
// to decide which filters an aggregate prefix filter replaces. Address
// fields use prefix containment: a shorter prefix covers every longer
// prefix (and host) inside it, with a wildcard acting as the /0 prefix.
func (l Label) Covers(other Label) bool {
	lb, ob := l.srcBits(), other.srcBits()
	if lb > ob || l.Src.Mask(lb) != other.Src.Mask(lb) {
		return false
	}
	lb, ob = l.dstBits(), other.dstBits()
	if lb > ob || l.Dst.Mask(lb) != other.Dst.Mask(lb) {
		return false
	}
	check := func(bit Wild, lv, ov uint32) bool {
		if l.Wildcards&bit != 0 {
			return true // l matches anything here
		}
		if other.Wildcards&bit != 0 {
			return false // other is broader on this field
		}
		return lv == ov
	}
	return check(WildProto, uint32(l.Proto), uint32(other.Proto)) &&
		check(WildSrcPort, uint32(l.SrcPort), uint32(other.SrcPort)) &&
		check(WildDstPort, uint32(l.DstPort), uint32(other.DstPort))
}

// Canonical zeroes every wildcarded field — and masks the host bits off
// prefixed addresses — so that equal-meaning labels compare equal and
// hash identically as map keys. Prefix lengths of 32 (or more) mean the
// whole address and normalize to 0.
func (l Label) Canonical() Label {
	if l.Wildcards&WildSrc != 0 {
		l.Src = 0
		l.SrcPrefixLen = 0
	} else if l.SrcPrefixLen != 0 {
		if l.SrcPrefixLen >= 32 {
			l.SrcPrefixLen = 0
		} else {
			l.Src = l.Src.Mask(l.SrcPrefixLen)
		}
	}
	if l.Wildcards&WildDst != 0 {
		l.Dst = 0
		l.DstPrefixLen = 0
	} else if l.DstPrefixLen != 0 {
		if l.DstPrefixLen >= 32 {
			l.DstPrefixLen = 0
		} else {
			l.Dst = l.Dst.Mask(l.DstPrefixLen)
		}
	}
	if l.Wildcards&WildProto != 0 {
		l.Proto = 0
	}
	if l.Wildcards&WildSrcPort != 0 {
		l.SrcPort = 0
	}
	if l.Wildcards&WildDstPort != 0 {
		l.DstPort = 0
	}
	return l
}

// Key returns a canonical map key for the label.
func (l Label) Key() Label { return l.Canonical() }

// String renders the label in a compact, parseable form such as
// "10.0.0.2->10.1.0.9 proto=any sport=* dport=80"; prefixed addresses
// render in CIDR form ("10.0.3.0/24").
func (l Label) String() string {
	var buf [80]byte // the longest rendering is 77 bytes
	return string(l.AppendTo(buf[:0]))
}

// AppendTo appends the form String renders to b and returns the
// extended slice; it allocates only when b lacks room.
func (l Label) AppendTo(b []byte) []byte {
	b = appendEnd(b, l.Wildcards&WildSrc != 0, l.Src, l.SrcPrefixLen)
	b = append(b, "->"...)
	b = appendEnd(b, l.Wildcards&WildDst != 0, l.Dst, l.DstPrefixLen)
	b = append(b, " proto="...)
	if l.Wildcards&WildProto != 0 {
		b = append(b, '*')
	} else if name := l.Proto.name(); name != "" {
		b = append(b, name...)
	} else {
		b = strconv.AppendUint(append(b, "proto"...), uint64(l.Proto), 10)
	}
	b = append(b, " sport="...)
	b = appendPort(b, l.Wildcards&WildSrcPort != 0, l.SrcPort)
	b = append(b, " dport="...)
	return appendPort(b, l.Wildcards&WildDstPort != 0, l.DstPort)
}

// appendEnd renders one label endpoint: "*", "a.b.c.d" or "a.b.c.d/bits".
func appendEnd(b []byte, wild bool, a Addr, bits uint8) []byte {
	if wild {
		return append(b, '*')
	}
	b = a.AppendTo(b)
	if bits >= 1 && bits <= 31 {
		b = strconv.AppendUint(append(b, '/'), uint64(bits), 10)
	}
	return b
}

// appendPort renders one label port: "*" or its number.
func appendPort(b []byte, wild bool, port uint16) []byte {
	if wild {
		return append(b, '*')
	}
	return strconv.AppendUint(b, uint64(port), 10)
}
