// Package core runs AITF on the simulator: it is the netsim adapter
// over the protocol engines. Gateway feeds a border.Engine (§II-B–E:
// request policing and verification, the three-way handshake,
// escalation, disconnection) from its node and keeps the data half —
// ingress filtering, classification and forwarding with a route
// record. Host feeds an endhost.Engine (§II-C, §IV-D: requests,
// handshake replies, stop orders). Both engines run on the simulator's
// virtual clock and seeded source, so the same code is exercised
// identically across experiments.
package core

import "aitf/internal/obs"

// Tracer consumes protocol trace records in the vocabulary both
// runtimes share (obs.EventKind); nil tracers are allowed everywhere.
// obs.Log.Record retains them for replay.
type Tracer func(obs.Record)
