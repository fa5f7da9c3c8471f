package experiments

import (
	"time"

	"aitf"
	"aitf/internal/detect"
	"aitf/internal/sim"
)

// AllocCell is one aggregation policy's outcome on the collateral
// contrast workload: the §IV-B filter-pressure setup (twelve /28
// sibling attackers against a 4-slot victim table) with a legitimate
// low-rate sender inside the attackers' /24 but outside their /28. The
// fixed /24 fallback must cover the legit sender to relieve the table;
// the collateral-aware allocator can cover the attackers at /28 and
// spare it. The simulator runs in virtual time, so every counter is
// byte-exact and machine-independent.
type AllocCell struct {
	// Policy names the aggregation fallback: "fixed24" (the one-rung
	// /24 allocation policy) or "alloc" (the /28../24 ladder, where
	// legit-traffic weighting has deeper rungs to choose from).
	Policy string `json:"policy"`
	// Attackers is the flooding-site count (the legit sibling excluded).
	Attackers int `json:"attackers"`
	// FilterCapacity is the victim gateway's wire-speed slot budget.
	FilterCapacity int `json:"filter_capacity"`
	// AttackBytes is the attack traffic delivered to the victim — lower
	// is better suppression.
	AttackBytes uint64 `json:"attack_bytes"`
	// LegitBytes is the legitimate traffic delivered to the victim —
	// higher means less collateral damage.
	LegitBytes uint64 `json:"legit_bytes"`
	// Aggregations counts sibling groups coalesced under pressure.
	Aggregations uint64 `json:"aggregations"`
	// CollateralAddrs is the covered-address collateral the gateway
	// priced into its aggregates (covered minus replaced, summed).
	CollateralAddrs uint64 `json:"collateral_addrs"`
	// CollateralBytes is the estimated collateral legit bytes/window
	// priced into the installed aggregates (both cells price with the
	// same estimator, so they compare).
	CollateralBytes uint64 `json:"collateral_bytes"`
}

// runAllocCell runs the contrast workload under one policy and labels
// the cell name. Mirrors the deterministic setup of
// TestAllocatorSparesLegitSibling — sites 0..11 flood at 300 kB/s,
// site 15 (outside the attackers' /28) sends at 15 kB/s, below the
// detection threshold — but defends the victim from its gateway, so
// the gateway's sketch engine both detects the attacks and feeds the
// allocator's measured per-pair collateral estimates.
func runAllocCell(name string, policy *aitf.AllocationPolicy) AllocCell {
	const attackers, capacity = 12, 4
	opt := aitf.DefaultOptions()
	opt.FilterCapacity = capacity
	opt.GatewayDetect = detect.Config{
		ThresholdBps: 25_000,
		Window:       sim.Time(250 * time.Millisecond),
		Seed:         7,
	}
	opt.Allocation = policy
	cell := AllocCell{Policy: name, Attackers: attackers, FilterCapacity: capacity}
	dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{
		Options:              opt,
		Attackers:            16,
		GatewayDefendsVictim: true,
	})
	for i := 0; i < attackers; i++ {
		fl := dep.Flood(dep.Attackers[i], dep.Victim, 3e5)
		fl.SrcPort = uint16(5000 + i)
		fl.Launch()
	}
	legit := dep.Flood(dep.Attackers[15], dep.Victim, 15_000)
	legit.SrcPort = 6000
	legit.Launch()
	dep.Run(10 * time.Second)

	if m := dep.Victim.PerSource[dep.Attackers[15].Node().Addr()]; m != nil {
		cell.LegitBytes = m.Bytes
	}
	for i := 0; i < attackers; i++ {
		if m := dep.Victim.PerSource[dep.Attackers[i].Node().Addr()]; m != nil {
			cell.AttackBytes += m.Bytes
		}
	}
	st := dep.VictimGW.Stats()
	cell.Aggregations = st.Aggregations
	cell.CollateralAddrs = st.AggregateCollateral
	cell.CollateralBytes = st.AggregateCollateralBytes
	return cell
}

// AllocSweep runs the collateral contrast under both policies and
// returns the two cells, fixed /24 first. The simulator runs in virtual
// time, so TestE15AllocSweep pins both cells byte for byte.
func AllocSweep() []AllocCell {
	return []AllocCell{
		runAllocCell("fixed24", &aitf.AllocationPolicy{PrefixLens: []uint8{24}}),
		runAllocCell("alloc", &aitf.AllocationPolicy{PrefixLens: []uint8{28, 26, 24}}),
	}
}

// E15CollateralAllocation regenerates the collateral-aware allocation
// contrast: under identical table pressure, the legit-traffic-weighted
// allocator must deliver strictly more legitimate bytes than the fixed
// /24 fallback at equal-or-better attack suppression.
func E15CollateralAllocation() Result {
	res := Result{ID: "E15", Title: "collateral-aware filter allocation under table pressure"}
	cells := AllocSweep()

	tbl := NewTable("§IV-B pressure + one legit /24 sibling (12 attackers, 4 slots, 10 s)",
		"policy", "attack B delivered", "legit B delivered", "aggregations", "collateral addrs", "est collateral B")
	for _, c := range cells {
		tbl.AddRow(c.Policy, c.AttackBytes, c.LegitBytes, c.Aggregations, c.CollateralAddrs, c.CollateralBytes)
	}
	tbl.AddNote("the fixed /24 fallback must cover the legit sibling to relieve the table; the allocator covers the twelve attackers at /28 and spares it")
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Shape check: the allocator row delivers strictly more legit bytes and no more attack bytes than the fixed row, with strictly lower covered-address collateral.")
	return res
}
