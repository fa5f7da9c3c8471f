// Fixture for the poolsafety analyzer: pooled packets may live in
// annotated owner types, must not land in arbitrary fields or
// globals, and must not be Released after ownership was handed off.
package poolsafety

import "packet"

// queue manages the release of every packet it holds.
// aitf:packetowner
type queue struct {
	buf []*packet.Packet
}

type sink struct {
	last *packet.Packet
}

var global *packet.Packet

func good(q *queue) {
	p := packet.NewData(64)
	q.buf = append(q.buf, p) // owner type: fine
	c := packet.Get()
	c.Release() // never stored: fine
}

func badField(s *sink) {
	p := packet.NewData(64)
	s.last = p // want "not annotated aitf:packetowner"
}

func badFieldDirect(s *sink) {
	s.last = packet.NewControl(16) // want "not annotated aitf:packetowner"
}

func badGlobal() {
	global = packet.Get() // want "package-level variable"
}

func badRelease(q *queue) {
	r := packet.NewData(8)
	q.buf = append(q.buf, r)
	r.Release() // want "after the packet was stored"
}

func goodLocalComposite() *packet.Packet {
	return packet.NewData(4)
}
