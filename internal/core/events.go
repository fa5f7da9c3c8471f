// Package core implements the AITF protocol itself: the behaviour of
// victims, victims' gateways, attackers' gateways and attackers
// (§II-C), the three-way handshake that authenticates filtering
// requests (§II-E), the escalation mechanism that walks filtering
// toward the attacker round by round (§II-B/II-D), and the
// disconnection threat that makes cooperation rational (§III-A).
//
// core nodes plug into the netsim data plane as packet handlers; all
// state machines run on simulated virtual time, so the same code is
// exercised identically across experiments.
package core

import "aitf/internal/obs"

// Tracer consumes protocol trace records in the vocabulary both
// runtimes share (obs.EventKind); nil tracers are allowed everywhere.
// obs.Log.Record retains them for replay.
type Tracer func(obs.Record)
