// Package aitf is a Go implementation of Active Internet Traffic
// Filtering (AITF), the automatic filter-propagation protocol of
// Argyraki & Cheriton: "Active Internet Traffic Filtering: Real-time
// Response to Denial-of-Service Attacks".
//
// AITF lets a victim of a denial-of-service flood push filtering of an
// undesired flow back to the network closest to the attacker, using a
// bounded, contract-policed amount of router resources:
//
//   - the victim asks its gateway to block a flow;
//   - the victim's gateway blocks it temporarily (Ttmp), remembers it
//     in a DRAM shadow cache for the full filter lifetime T, and
//     propagates the request to the attacker's gateway (found via the
//     in-packet route record);
//   - the attacker's gateway verifies the request with a three-way
//     handshake, installs a filter for T, and orders the attacker to
//     stop or be disconnected;
//   - if the attacker side does not cooperate, the mechanism escalates
//     round by round toward the Internet core, and can ultimately
//     disconnect the offending peering link.
//
// The package wires the protocol engine (internal/core) onto a
// deterministic discrete-event network simulator, exposing ready-made
// deployments for the paper's topologies. A UDP-based runtime for real
// multi-process experiments lives in internal/wire and cmd/aitfd.
//
// # Quick start
//
//	opt := aitf.DefaultOptions()
//	dep := aitf.DeployFigure1(opt)
//	flood := dep.Flood(dep.Attacker, dep.Victim, 1.25e6) // 10 Mbit/s
//	flood.Launch()
//	dep.Run(5 * time.Second)
//	fmt.Println(dep.Log)                      // protocol timeline
//	fmt.Println(dep.Victim.Meter.Bytes)       // bytes that got through
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of every quantity in the paper's evaluation.
package aitf

import (
	"aitf/internal/alloc"
	"aitf/internal/contract"
	"aitf/internal/core"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
)

// Re-exported substrate types that the module's programs name. The
// module path "aitf" has no dot, so no other module can require this
// package without a replace directive: the programs in cmd/, examples/,
// benchmark/ and internal/ are its only users, and a re-export none of
// them names is not kept.
type (
	// Addr is a 32-bit network address (dotted-quad formatted).
	Addr = flow.Addr
	// Label is a wildcardable 5-tuple flow label.
	Label = flow.Label
	// Contract is a filtering contract (rates R1/R2).
	Contract = contract.Contract
	// Timers groups the protocol time constants (T, Ttmp, Grace, Penalty).
	Timers = contract.Timers
	// Gateway is an AITF border router.
	Gateway = core.Gateway
	// Host is an AITF end-host.
	Host = core.Host
	// Event is a protocol trace record (the same record the wire
	// runtime writes into its trace ring).
	Event = obs.Record
	// EventKind labels protocol trace events.
	EventKind = obs.EventKind
	// Log retains protocol events for inspection and replay.
	Log = obs.Log
	// ShadowMode selects on-off reappearance handling at gateways.
	ShadowMode = core.ShadowMode
	// AllocationPolicy configures the collateral-aware filter
	// allocator (internal/alloc) on gateways.
	AllocationPolicy = alloc.Policy
)

// Shadow-mode values (see core.ShadowMode).
const (
	VictimDriven = core.VictimDriven
	GatewayAuto  = core.GatewayAuto
	ShadowOff    = core.ShadowOff
)

// Event kinds re-exported for assertions on deployment logs.
const (
	EvAttackDetected      = obs.EvAttackDetected
	EvRequestSent         = obs.EvRequestSent
	EvRequestReceived     = obs.EvRequestReceived
	EvRequestPoliced      = obs.EvRequestPoliced
	EvRequestInvalid      = obs.EvRequestInvalid
	EvTempFilterInstalled = obs.EvTempFilterInstalled
	EvFilterInstalled     = obs.EvFilterInstalled
	EvFilterRejected      = obs.EvFilterRejected
	EvShadowLogged        = obs.EvShadowLogged
	EvShadowHit           = obs.EvShadowHit
	EvHandshakeQuery      = obs.EvHandshakeQuery
	EvHandshakeReply      = obs.EvHandshakeReply
	EvHandshakeOK         = obs.EvHandshakeOK
	EvHandshakeFailed     = obs.EvHandshakeFailed
	EvStopOrder           = obs.EvStopOrder
	EvFlowStopped         = obs.EvFlowStopped
	EvTakeoverOK          = obs.EvTakeoverOK
	EvEscalated           = obs.EvEscalated
	EvDisconnected        = obs.EvDisconnected
	EvLongBlock           = obs.EvLongBlock
	EvAggregated          = obs.EvAggregated
	EvDeaggregated        = obs.EvDeaggregated
	EvCtrlRetransmit      = obs.EvCtrlRetransmit
	EvCtrlDupDrop         = obs.EvCtrlDupDrop
	EvGatewayCrashed      = obs.EvGatewayCrashed
	EvGatewayRestored     = obs.EvGatewayRestored
	EvClusterMerge        = obs.EvClusterMerge
	EvReplicaKilled       = obs.EvReplicaKilled
)

// PairLabel is the canonical AITF flow label: all traffic from src to
// dst.
func PairLabel(src, dst Addr) Label { return flow.PairLabel(src, dst) }

// DefaultTimers returns the paper's example timers (T = 1 min,
// Ttmp = 600 ms).
func DefaultTimers() Timers { return contract.DefaultTimers() }

// DefaultEndHostContract returns the paper's example end-host contract
// (R1 = 100/s, R2 = 1/s).
func DefaultEndHostContract() Contract { return contract.DefaultEndHost() }

// Provision computes the paper's §IV provisioning quantities (Nv, nv,
// mv, na) for a contract and timer set.
func Provision(c Contract, tm Timers) contract.Provisioning {
	return contract.Provision(c, tm)
}

// BandwidthReduction is the paper's r ≈ n(Td+Tr)/T (§IV-A.1).
func BandwidthReduction(n int, td, tr, t filter.Time) float64 {
	return contract.BandwidthReduction(n, td, tr, t)
}
