package attack

import (
	"math/rand"
	"time"

	"aitf/internal/core"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Behavior names an adversarial traffic pattern the scenario harness
// can instantiate. The set mirrors the paper's evaluation (§IV):
// steady floods, on-off pulsers exercising the shadow cache, source
// spoofers exercising ingress filtering and per-label provisioning,
// and filter-request flooders attacking the control plane itself.
// Colluding non-cooperative gateways are the fifth adversary class;
// they are a deployment property (GatewayConfig.Cooperative), not a
// traffic pattern, so they have no Behavior value.
type Behavior uint8

// Adversary behaviors.
const (
	// Steady floods at a constant rate until stopped.
	Steady Behavior = iota
	// Pulse turns the flood on and off so each reappearance probes the
	// victim gateway's shadow cache (§II-B "on-off" attackers).
	Pulse
	// Spoof forges packet sources, optionally rotating across a small
	// range, so every spoofed label costs the defense a fresh filter.
	Spoof
	// RequestFlooder sends fabricated filtering requests at high rate —
	// the malicious-requester adversary of §II-E / experiment E9.
	RequestFlooder
	// TableExhauster rotates spoofed sources across a whole /24 sibling
	// range so every packet's label costs the victim side a distinct
	// wire-speed filter — the filter-table exhaustion adversary of §IV
	// that forces gateways to fall back to aggregate prefix filters.
	TableExhauster
)

func (b Behavior) String() string {
	switch b {
	case Steady:
		return "steady"
	case Pulse:
		return "pulse"
	case Spoof:
		return "spoof"
	case RequestFlooder:
		return "request-flooder"
	case TableExhauster:
		return "table-exhauster"
	default:
		return "behavior?"
	}
}

// Profile is a generated adversary description: one misbehaving host
// plus the pattern it follows. Build turns it into the concrete
// workload objects; all randomness (jitter, pulse phase, spoof
// rotation) comes from the explicit rng so a scenario replays
// byte-identically from its seed.
type Profile struct {
	// Behavior selects the traffic pattern.
	Behavior Behavior
	// From is the misbehaving host.
	From *core.Host
	// Target is the victim address (for RequestFlooder: the address
	// named as the claimed victim).
	Target flow.Addr
	// Gateway is the adversary's serving gateway, used by
	// RequestFlooder as the request sink.
	Gateway flow.Addr
	// Rate is the attack bandwidth in bytes/s (RequestFlooder:
	// requests/s).
	Rate float64
	// Start and Stop bound the misbehavior in virtual time.
	Start, Stop sim.Time
	// On and Off shape Pulse behavior; ignored otherwise.
	On, Off sim.Time
	// SpoofSrc and SpoofPerPacket shape Spoof and TableExhauster
	// behavior; SpoofDwell is the per-sibling burst length of a
	// TableExhauster (0 picks a default).
	SpoofSrc       flow.Addr
	SpoofPerPacket int
	SpoofDwell     sim.Time
	// Jitter randomizes inter-packet gaps (fraction of the interval).
	Jitter float64
}

// Launched holds the running workload objects a profile produced.
type Launched struct {
	Profile Profile
	Flood   *Flood        // non-nil for Steady, Pulse, Spoof
	ReqFl   *RequestFlood // non-nil for RequestFlooder
}

// Launch schedules the profile's workload on its host's engine.
func (p Profile) Launch(rng *rand.Rand) Launched {
	switch p.Behavior {
	case RequestFlooder:
		count := int(p.Rate * (p.Stop - p.Start).Seconds())
		if count < 1 {
			count = 1
		}
		rf := &RequestFlood{
			From:    p.From,
			Gateway: p.Gateway,
			Rate:    p.Rate,
			Count:   count,
			Start:   p.Start,
			Victim:  p.From.Node().Addr(),
			MakeEvidence: func(i int) []packet.RREntry {
				// Fabricated evidence: plausible-looking router stamps
				// with invented authenticators.
				return []packet.RREntry{
					{Router: p.Gateway, Nonce: uint64(i)*0x9e3779b97f4a7c15 + 1},
				}
			},
		}
		rf.Launch()
		return Launched{Profile: p, ReqFl: rf}
	default:
		fl := &Flood{
			From:       p.From,
			Dst:        p.Target,
			Rate:       p.Rate,
			PacketSize: 1000,
			SrcPort:    4000,
			DstPort:    80,
			Start:      p.Start,
			Stop:       p.Stop,
			Jitter:     p.Jitter,
			Rng:        rng,
		}
		if p.Behavior == Pulse {
			fl.On, fl.Off = p.On, p.Off
		}
		if p.Behavior == Spoof {
			fl.SpoofSrc = p.SpoofSrc
			fl.SpoofPerPacket = p.SpoofPerPacket
		}
		if p.Behavior == TableExhauster {
			// Burst through the sibling range sequentially: each sibling
			// in turn crosses the victim's per-source detector, so every
			// distinct spoofed (src, dst) label costs the defense a
			// fresh filter until it aggregates to the covering /24.
			fl.SpoofSrc = p.SpoofSrc
			fl.SpoofPerPacket = p.SpoofPerPacket
			if fl.SpoofPerPacket <= 1 {
				fl.SpoofPerPacket = 64
			}
			fl.SpoofDwell = p.SpoofDwell
			if fl.SpoofDwell <= 0 {
				fl.SpoofDwell = 150 * time.Millisecond
			}
		}
		fl.Launch()
		return Launched{Profile: p, Flood: fl}
	}
}
