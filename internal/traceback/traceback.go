// Package traceback implements AITF's path-identification substrate as
// an in-packet route record (RR).
//
// AITF assumes "an efficient traceback technique" so the victim's
// gateway can find the attacker's gateway and the next AITF node on the
// attack path (§II-F). We use the variant with zero traceback latency
// that the paper's nv example assumes (a TRIAD-like architecture where
// "traceback is automatically provided inside each packet"): every AITF
// border router appends its address to a shim carried by the packet.
//
// Each entry also carries a 64-bit authenticator: SipHash-2-4 of the
// packet's flow tuple under a router-local 128-bit key. A border router
// receiving a filtering request can verify that the evidence path
// really crossed it (it recomputes its own authenticator) — forged
// requests naming routers that never saw the flow are detected without
// any router-to-router key distribution.
//
// The key is derived once, in NewRecorder, as the first 16 bytes of
// SHA-256 of the configured secret, so a secret of any length and
// quality becomes a uniform key. SipHash-2-4 is a keyed PRF built for
// short inputs: the 13-byte tuple is two message words, hashed on the
// stack with no allocation, because a border router pays this on every
// packet it forwards (§II-F). The tag is 64 bits, so a forger who does
// not hold the key succeeds with probability 2^-64 per guess.
package traceback

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/bits"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

// Recorder stamps and verifies route-record entries for one border
// router. The zero value is unusable; use NewRecorder.
type Recorder struct {
	addr flow.Addr
	// k0, k1 are the SipHash key, fixed for the life of the Recorder.
	k0, k1 uint64
}

// NewRecorder builds a Recorder for the router at addr. The secret is
// local to the router and never shared; an empty secret is replaced by
// a derivation from the address so that misconfigured routers still get
// distinct (if weak) keys.
func NewRecorder(addr flow.Addr, secret []byte) *Recorder {
	if len(secret) == 0 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(addr))
		secret = b[:]
	}
	h := sha256.Sum256(secret)
	return &Recorder{
		addr: addr,
		k0:   binary.LittleEndian.Uint64(h[0:8]),
		k1:   binary.LittleEndian.Uint64(h[8:16]),
	}
}

// Nonce computes the authenticator this router would stamp on a packet
// with the given tuple: SipHash-2-4 under the router's key of the
// 13-byte encoding src(4) dst(4) proto(1) sport(2) dport(2), big endian.
// SipHash reads its message as little-endian words, so the two words
// are assembled from the fields directly; the second carries the five
// trailing bytes and the message length in its top byte.
//
// aitf:noalloc
func (r *Recorder) Nonce(t flow.Tuple) uint64 {
	m0 := uint64(bits.ReverseBytes32(uint32(t.Src))) | uint64(bits.ReverseBytes32(uint32(t.Dst)))<<32
	m1 := uint64(t.Proto) | uint64(bits.ReverseBytes16(t.SrcPort))<<8 |
		uint64(bits.ReverseBytes16(t.DstPort))<<24 | tupleBytes<<56

	v0 := r.k0 ^ 0x736f6d6570736575
	v1 := r.k1 ^ 0x646f72616e646f6d
	v2 := r.k0 ^ 0x6c7967656e657261
	v3 := r.k1 ^ 0x7465646279746573

	v3 ^= m0
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= m0

	v3 ^= m1
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= m1

	v2 ^= 0xff
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	return v0 ^ v1 ^ v2 ^ v3
}

// tupleBytes is the length of the tuple encoding Nonce authenticates.
const tupleBytes = 13

// sipRound is one SipRound of the SipHash paper (figure 2.1).
func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = bits.RotateLeft64(v1, 13)
	v1 ^= v0
	v0 = bits.RotateLeft64(v0, 32)
	v2 += v3
	v3 = bits.RotateLeft64(v3, 16)
	v3 ^= v2
	v0 += v3
	v3 = bits.RotateLeft64(v3, 21)
	v3 ^= v0
	v2 += v1
	v1 = bits.RotateLeft64(v1, 17)
	v1 ^= v2
	v2 = bits.RotateLeft64(v2, 32)
	return v0, v1, v2, v3
}

// Verify reports whether the path contains an entry for this router
// whose authenticator matches the tuple — i.e. whether a packet of this
// flow credibly crossed this router.
//
// aitf:noalloc
func (r *Recorder) Verify(path []packet.RREntry, t flow.Tuple) bool {
	want := r.Nonce(t)
	for _, e := range path {
		if e.Router == r.addr && e.Nonce == want {
			return true
		}
	}
	return false
}

// Traceback errors.
var (
	ErrEmptyPath    = errors.New("traceback: empty path")
	ErrNotOnPath    = errors.New("traceback: requester not on recorded path")
	ErrRoundTooHigh = errors.New("traceback: escalation round beyond path end")
)

// AttackPath is the ordered list of AITF border routers a flow crossed,
// index 0 being the attacker's gateway (appended first).
type AttackPath []packet.RREntry

// AttackerGateway returns the AITF node closest to the attacker.
func (ap AttackPath) AttackerGateway() (flow.Addr, error) {
	if len(ap) == 0 {
		return 0, ErrEmptyPath
	}
	return ap[0].Router, nil
}

// IndexOf returns the position of addr on the path, or -1.
func (ap AttackPath) IndexOf(addr flow.Addr) int {
	for i, e := range ap {
		if e.Router == addr {
			return i
		}
	}
	return -1
}
