// Fixture stand-in for aitf/internal/packet: the pool constructors
// and Release, matched by the poolsafety analyzer through the
// package base name.
package packet

type Packet struct{ Payload []byte }

func NewData(n int) *Packet { return &Packet{Payload: make([]byte, n)} }

func NewControl(n int) *Packet { return &Packet{Payload: make([]byte, n)} }

func Get() *Packet { return &Packet{} }

func (p *Packet) Release() {}
