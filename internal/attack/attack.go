// Package attack provides the workload side of the experiments:
// constant floods, on-off ("pulsing") floods, multi-zombie armies,
// legitimate background traffic, detectors for the victim, and the
// malicious-requester adversary used by the security experiment.
package attack

import (
	"math/rand"

	"aitf/internal/core"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Flood emits fixed-size packets at a constant rate from a host toward
// a destination, optionally pulsing on/off, from Start until Stop.
type Flood struct {
	// From is the sending host; packets go through its compliance
	// checks, so a compliant host stops when ordered.
	From *core.Host
	// Dst is the destination address.
	Dst flow.Addr
	// Rate is the attack bandwidth in payload bytes/second.
	Rate float64
	// PacketSize is the payload bytes per packet.
	PacketSize int
	// Proto, SrcPort and DstPort fill the 5-tuple.
	Proto            flow.Proto
	SrcPort, DstPort uint16
	// Start and Stop bound the flood in virtual time; Stop 0 = forever.
	Start, Stop sim.Time
	// On and Off, when both positive, pulse the flood: On sending,
	// Off silent, repeating. The schedule is anchored at Start.
	On, Off sim.Time
	// SpoofSrc, when nonzero, forges the packet source address.
	SpoofSrc flow.Addr
	// SpoofPerPacket randomizes the source per packet across the given
	// number of addresses starting at SpoofSrc (0 = no randomization).
	SpoofPerPacket int
	// SpoofDwell, when positive (with SpoofPerPacket > 1), rotates the
	// spoofed source sequentially instead of randomly, dwelling this
	// long on each sibling: concentrated bursts let every sibling cross
	// a per-source detection threshold in turn, so each one costs the
	// defense a fresh filter — the table-exhauster pattern.
	SpoofDwell sim.Time
	// Jitter randomizes each inter-packet gap by up to the given
	// fraction of the nominal interval (0 = perfectly periodic).
	Jitter float64
	// Rng drives every stochastic choice (spoofed sources, jitter).
	// Nil falls back to the engine's seeded source; either way a run
	// replays byte-identically from its seed.
	Rng *rand.Rand

	// Sent counts packets that entered the network; Suppressed counts
	// packets withheld because of a stop order.
	Sent, Suppressed uint64
}

// Interval returns the inter-packet gap implied by Rate and PacketSize.
func (f *Flood) Interval() sim.Time {
	if f.Rate <= 0 || f.PacketSize <= 0 {
		return 0
	}
	return sim.Time(float64(f.PacketSize) / f.Rate * 1e9)
}

// Launch schedules the flood on the host's engine. It must be called
// before the simulation runs past Start.
func (f *Flood) Launch() {
	if f.Proto == 0 {
		f.Proto = flow.ProtoUDP
	}
	if f.PacketSize <= 0 {
		f.PacketSize = 1000
	}
	eng := f.From.Node().Engine()
	interval := f.Interval()
	if interval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		now := eng.Now()
		if f.Stop > 0 && now >= f.Stop {
			return
		}
		if f.onAt(now) {
			f.emit(now)
		}
		gap := interval
		if f.Jitter > 0 {
			// Uniform in [1-J, 1+J] × interval, mean-preserving.
			gap = sim.Time(float64(interval) * (1 + f.Jitter*(2*f.rng().Float64()-1)))
			if gap < 1 {
				gap = 1
			}
		}
		eng.Post(now+gap, tick)
	}
	eng.Post(f.Start, tick)
}

// rng returns the flood's random source, defaulting to the engine's.
func (f *Flood) rng() *rand.Rand {
	if f.Rng != nil {
		return f.Rng
	}
	return f.From.Node().Engine().Rand()
}

// onAt reports whether the pulse schedule has the flood sending at t.
func (f *Flood) onAt(t sim.Time) bool {
	if f.On <= 0 || f.Off <= 0 {
		return true
	}
	period := f.On + f.Off
	return (t-f.Start)%period < f.On
}

func (f *Flood) emit(now sim.Time) {
	src := f.From.Node().Addr()
	if f.SpoofSrc != 0 {
		src = f.SpoofSrc
		if f.SpoofPerPacket > 1 {
			var off int
			if f.SpoofDwell > 0 {
				off = int((now-f.Start)/f.SpoofDwell) % f.SpoofPerPacket
			} else {
				off = f.rng().Intn(f.SpoofPerPacket)
			}
			src = flow.Addr(uint32(f.SpoofSrc) + uint32(off))
		}
	}
	p := packet.NewData(src, f.Dst, f.Proto, f.SrcPort, f.DstPort, f.PacketSize)
	if f.From.SendData(p) {
		f.Sent++
	} else {
		f.Suppressed++
	}
}

// Army launches one flood per zombie host toward a single victim.
type Army struct {
	Zombies []*core.Host
	Dst     flow.Addr
	// RatePerZombie is each zombie's attack bandwidth (bytes/s).
	RatePerZombie float64
	PacketSize    int
	// Stagger spaces the zombies' start times evenly over the given
	// window from time 0, modelling a worm-driven ramp-up.
	Stagger sim.Time

	Floods []*Flood
}

// Launch schedules every zombie's flood.
func (a *Army) Launch() {
	for i, z := range a.Zombies {
		var start sim.Time
		if a.Stagger > 0 && len(a.Zombies) > 1 {
			start = a.Stagger * sim.Time(i) / sim.Time(len(a.Zombies))
		}
		fl := &Flood{
			From: z, Dst: a.Dst, Rate: a.RatePerZombie,
			PacketSize: a.PacketSize, Start: start,
			SrcPort: uint16(10000 + i%50000), DstPort: 80,
		}
		fl.Launch()
		a.Floods = append(a.Floods, fl)
	}
}
