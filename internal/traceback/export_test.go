package traceback

import "aitf/internal/packet"

// Stamp appends this router's RR entry to the packet.
func (r *Recorder) Stamp(p *packet.Packet) {
	p.RecordRoute(r.addr, r.Nonce(p.Tuple()))
}
