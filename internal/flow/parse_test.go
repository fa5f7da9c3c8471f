package flow

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// wildAll sets every Wild bit: the label matches every packet.
const wildAll = WildSrc | WildDst | WildProto | WildSrcPort | WildDstPort

// fromSource matches all traffic from src regardless of destination.
func fromSource(src Addr) Label {
	return Label{Src: src, Wildcards: WildDst | WildProto | WildSrcPort | WildDstPort}
}

// dstPrefixLabel matches all traffic from src to the destination prefix
// dst/bits, any protocol and ports.
func dstPrefixLabel(src Addr, dst Addr, bits uint8) Label {
	l := PairLabel(src, dst)
	l.DstPrefixLen = bits
	return l.Canonical()
}

// errBadLabel reports an unparseable label string.
var errBadLabel = errors.New("flow: malformed label")

// parseLabel parses the format Label.String renders. It is the tests'
// reference reader: a canonical label's text reads back as the label,
// so String loses nothing that tells two canonical labels apart.
func parseLabel(s string) (Label, error) {
	fields := strings.Fields(s)
	if len(fields) != 4 {
		return Label{}, fmt.Errorf("%w: %q", errBadLabel, s)
	}
	var l Label
	ends := strings.Split(fields[0], "->")
	if len(ends) != 2 {
		return Label{}, fmt.Errorf("%w: %q", errBadLabel, s)
	}
	// parseEnd handles one endpoint: "*", "a.b.c.d", or "a.b.c.d/bits".
	parseEnd := func(s string) (Addr, uint8, Wild, error) {
		if s == "*" {
			return 0, 0, 1, nil // wild flag; caller maps to the right bit
		}
		addrPart, bitsPart, prefixed := strings.Cut(s, "/")
		a, err := ParseAddr(addrPart)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%w: %v", errBadLabel, err)
		}
		if !prefixed {
			return a, 0, 0, nil
		}
		n, err := strconv.ParseUint(bitsPart, 10, 8)
		if err != nil || n < 1 || n > 32 {
			return 0, 0, 0, fmt.Errorf("%w: prefix length %q", errBadLabel, bitsPart)
		}
		if n == 32 {
			return a, 0, 0, nil // /32 is the full address
		}
		return a, uint8(n), 0, nil
	}
	a, bits, wild, err := parseEnd(ends[0])
	if err != nil {
		return Label{}, err
	}
	if wild != 0 {
		l.Wildcards |= WildSrc
	} else {
		l.Src, l.SrcPrefixLen = a, bits
	}
	a, bits, wild, err = parseEnd(ends[1])
	if err != nil {
		return Label{}, err
	}
	if wild != 0 {
		l.Wildcards |= WildDst
	} else {
		l.Dst, l.DstPrefixLen = a, bits
	}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Label{}, fmt.Errorf("%w: field %q", errBadLabel, f)
		}
		switch k {
		case "proto":
			switch v {
			case "*", "any":
				l.Wildcards |= WildProto
			case "udp":
				l.Proto = ProtoUDP
			case "tcp":
				l.Proto = ProtoTCP
			case "icmp":
				l.Proto = ProtoICMP
			case "aitf":
				l.Proto = ProtoAITF
			default:
				n, err := strconv.ParseUint(strings.TrimPrefix(v, "proto"), 10, 8)
				if err != nil {
					return Label{}, fmt.Errorf("%w: proto %q", errBadLabel, v)
				}
				if n == 0 {
					// Proto 0 is ProtoAny, which renders as "any": treat a
					// numeric zero as the wildcard too so parse/format
					// round-trips.
					l.Wildcards |= WildProto
				}
				l.Proto = Proto(n)
			}
		case "sport", "dport":
			if v == "*" {
				if k == "sport" {
					l.Wildcards |= WildSrcPort
				} else {
					l.Wildcards |= WildDstPort
				}
				continue
			}
			n, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				return Label{}, fmt.Errorf("%w: port %q", errBadLabel, v)
			}
			if k == "sport" {
				l.SrcPort = uint16(n)
			} else {
				l.DstPort = uint16(n)
			}
		default:
			return Label{}, fmt.Errorf("%w: unknown field %q", errBadLabel, k)
		}
	}
	return l, nil
}
