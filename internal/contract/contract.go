// Package contract models AITF filtering contracts and the provisioning
// arithmetic of the paper's Section IV.
//
// A filtering contract between networks A and B fixes the rate R1 at
// which A accepts filtering requests for traffic toward B, and the rate
// R2 at which A may ask B to block traffic entering A (§II-A). All of
// the paper's guarantees — protected flow count Nv, victim-gateway
// filter budget nv, shadow budget mv, attacker-gateway budget na, and
// the effective-bandwidth reduction r — are functions of these rates
// and the protocol timers, reproduced here exactly.
package contract

import (
	"fmt"
	"time"
)

// Contract is a filtering contract between a provider and one client
// (an end-host or a peering network).
type Contract struct {
	// R1 is the rate (requests/second) at which the provider accepts
	// filtering requests from the client ("block traffic coming to me").
	R1 float64
	// R1Burst is the token-bucket depth applied to R1 policing.
	R1Burst float64
	// R2 is the rate (requests/second) at which the provider may send
	// filtering requests to the client ("stop sending this flow").
	R2 float64
	// R2Burst is the token-bucket depth applied to R2 policing.
	R2Burst float64
}

// DefaultEndHost mirrors the paper's worked example for a client
// contract: R1 = 100 requests/s toward the provider, R2 = 1 request/s
// toward the client (§IV-B, §IV-C).
func DefaultEndHost() Contract {
	return Contract{R1: 100, R1Burst: 10, R2: 1, R2Burst: 5}
}

// DefaultPeer is a provider-to-provider contract; peering links carry
// aggregated requests so both directions use the higher rate.
func DefaultPeer() Contract {
	return Contract{R1: 100, R1Burst: 20, R2: 100, R2Burst: 20}
}

// Timers groups the protocol's time constants.
type Timers struct {
	// T is the filter lifetime a filtering request asks for.
	T time.Duration
	// Ttmp is how long the victim's gateway keeps its temporary filter
	// while waiting for the attacker's gateway to take over (Ttmp ≪ T).
	Ttmp time.Duration
	// Grace is how long a node is given to stop a flow before its
	// provider concludes it is non-compliant.
	Grace time.Duration
	// Penalty is how long a disconnection lasts.
	Penalty time.Duration
}

// DefaultTimers matches the paper's examples: T = 1 min, Ttmp = 600 ms
// (traceback time 0 plus a 600 ms handshake, §IV-B).
func DefaultTimers() Timers {
	return Timers{
		T:       time.Minute,
		Ttmp:    600 * time.Millisecond,
		Grace:   250 * time.Millisecond,
		Penalty: 5 * time.Minute,
	}
}

// Validate reports configuration errors (Ttmp ≥ T defeats the design).
func (tm Timers) Validate() error {
	if tm.T <= 0 {
		return fmt.Errorf("contract: T = %v, must be positive", tm.T)
	}
	if tm.Ttmp <= 0 {
		return fmt.Errorf("contract: Ttmp = %v, must be positive", tm.Ttmp)
	}
	if tm.Ttmp >= tm.T {
		return fmt.Errorf("contract: Ttmp = %v not ≪ T = %v", tm.Ttmp, tm.T)
	}
	if tm.Grace < 0 || tm.Penalty < 0 {
		return fmt.Errorf("contract: negative grace/penalty")
	}
	return nil
}

// ProtectedFlows is Nv = R1·T: the number of simultaneous undesired
// flows a client is protected against (§IV-A.2).
func ProtectedFlows(r1 float64, t time.Duration) int {
	return int(r1 * t.Seconds())
}

// victimGatewayFilters is nv = R1·Ttmp: wire-speed filters the provider
// needs to serve one client's worst-case request stream (§IV-B).
func victimGatewayFilters(r1 float64, ttmp time.Duration) int {
	n := r1 * ttmp.Seconds()
	// Partial filters do not exist; a provider provisions the ceiling.
	if n != float64(int(n)) {
		return int(n) + 1
	}
	return int(n)
}

// victimGatewayShadows is mv = R1·T: DRAM shadow entries the provider
// needs for the same client (§IV-B).
func victimGatewayShadows(r1 float64, t time.Duration) int {
	return int(r1 * t.Seconds())
}

// attackerGatewayFilters is na = R2·T: filters the attacker's provider
// (and, symmetrically, the attacker itself) needs to honour all
// requests sent at rate R2 (§IV-C, §IV-D).
func attackerGatewayFilters(r2 float64, t time.Duration) int {
	return int(r2 * t.Seconds())
}

// BandwidthReduction is r ≈ n(Td+Tr)/T: the factor by which AITF cuts
// the effective bandwidth of an undesired flow, where n counts
// non-cooperating AITF nodes on the attack path, Td is detection time
// and Tr the victim→gateway one-way delay (§IV-A.1).
func BandwidthReduction(n int, td, tr, t time.Duration) float64 {
	if t <= 0 {
		return 1
	}
	r := float64(n) * (td + tr).Seconds() / t.Seconds()
	if r > 1 {
		return 1
	}
	if r < 0 {
		return 0
	}
	return r
}

// EffectiveBandwidth applies BandwidthReduction to a raw attack
// bandwidth in bytes/second.
func EffectiveBandwidth(rawBps float64, n int, td, tr, t time.Duration) float64 {
	return rawBps * BandwidthReduction(n, td, tr, t)
}

// Provisioning summarises every §IV quantity for one contract + timers.
type Provisioning struct {
	ProtectedFlows         int // Nv = R1·T
	VictimGatewayFilters   int // nv = R1·Ttmp
	VictimGatewayShadows   int // mv = R1·T
	AttackerGatewayFilters int // na = R2·T
	AttackerFilters        int // na again, held by the client (§IV-D)
}

// Provision computes the full §IV provisioning table.
func Provision(c Contract, tm Timers) Provisioning {
	return Provisioning{
		ProtectedFlows:         ProtectedFlows(c.R1, tm.T),
		VictimGatewayFilters:   victimGatewayFilters(c.R1, tm.Ttmp),
		VictimGatewayShadows:   victimGatewayShadows(c.R1, tm.T),
		AttackerGatewayFilters: attackerGatewayFilters(c.R2, tm.T),
		AttackerFilters:        attackerGatewayFilters(c.R2, tm.T),
	}
}

// GatewayCapacity is the one provisioning rule for a border router's
// filters and shadows (§IV). A router serving clients on contract client
// and peers on contract peer holds filters = nv(client) + na(peer) +
// na(client), a victim's gateway's temporary filters (§IV-B) and an
// attacker's gateway's filters at the peers' and clients' R2 (§IV-C),
// and logs shadows = mv(client). A positive filters or shadows is an
// explicit budget and is kept. At DefaultEndHost, DefaultPeer and
// DefaultTimers the rule reads 6,120 filters and 6,000 shadows.
func GatewayCapacity(filters, shadows int, client, peer Contract, tm Timers) (int, int) {
	c, p := Provision(client, tm), Provision(peer, tm)
	if filters <= 0 {
		filters = c.VictimGatewayFilters + p.AttackerGatewayFilters + c.AttackerGatewayFilters
	}
	if shadows <= 0 {
		shadows = c.VictimGatewayShadows
	}
	return filters, shadows
}

func (p Provisioning) String() string {
	return fmt.Sprintf(
		"Nv=%d flows, nv=%d filters, mv=%d shadows, na=%d filters",
		p.ProtectedFlows, p.VictimGatewayFilters, p.VictimGatewayShadows,
		p.AttackerGatewayFilters)
}
