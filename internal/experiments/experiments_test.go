package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aitf"
	"aitf/internal/scenario"
)

// TestAllDriversRegistered pins the experiment registry to EXPERIMENTS.md.
func TestAllDriversRegistered(t *testing.T) {
	drivers, ids := All()
	want := []string{"E1", "E13", "E15", "E16", "E17", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], id)
		}
		if drivers[id] == nil {
			t.Fatalf("driver %s missing", id)
		}
	}
}

func TestResultRender(t *testing.T) {
	r := E1Figure1()
	var b strings.Builder
	r.Render(&b)
	out := b.String()
	for _, want := range []string{"E1", "Figure-1 scenarios", "timeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

// TestE2Shape asserts the §IV-A.1 reproduction: measured r grows with n
// and shrinks with T, staying within a small constant of the analytic
// bound.
func TestE2Shape(t *testing.T) {
	td, tr := 50*time.Millisecond, 50*time.Millisecond
	r1 := E2Run(1, time.Minute, td, tr, aitf.VictimDriven)
	r3 := E2Run(3, time.Minute, td, tr, aitf.VictimDriven)
	if r3 <= r1 {
		t.Fatalf("r not increasing in n: r(1)=%v r(3)=%v", r1, r3)
	}
	rShort := E2Run(2, 30*time.Second, td, tr, aitf.VictimDriven)
	rLong := E2Run(2, 2*time.Minute, td, tr, aitf.VictimDriven)
	if rLong >= rShort {
		t.Fatalf("r not decreasing in T: r(30s)=%v r(120s)=%v", rShort, rLong)
	}
	// Within 3x of the analytic value (the paper's is a bound).
	analytic := aitf.BandwidthReduction(1, td, tr, time.Minute)
	if r1 > 3*analytic || r1 < analytic/3 {
		t.Fatalf("measured r(1)=%v too far from analytic %v", r1, analytic)
	}
}

// TestE8Shape asserts the §V comparison: AITF reaches relief, pushback
// leaks more and recruits more routers as the chain deepens.
func TestE8Shape(t *testing.T) {
	horizon := 20 * time.Second
	ar, as, _, aleak := runAITFChain(3, horizon)
	pr, ps, _, pleak := runPushbackChain(3, horizon)
	if ar < 0 {
		t.Fatal("AITF never reached relief")
	}
	if pr >= 0 && pr <= ar {
		t.Fatalf("pushback relief (%d) not slower than AITF (%d)", pr, ar)
	}
	if pleak <= aleak*2 {
		t.Fatalf("pushback leak %v should far exceed AITF leak %v", pleak, aleak)
	}
	if as > 2 {
		t.Fatalf("AITF holds state on %d routers, want ≤2", as)
	}
	if ps < 2 {
		t.Fatalf("pushback recruited %d routers, want ≥2", ps)
	}
	// Depth scaling: pushback state grows with depth, AITF's does not.
	_, as5, _, _ := runAITFChain(5, horizon)
	_, ps5, _, _ := runPushbackChain(5, horizon)
	if as5 != as {
		t.Fatalf("AITF state depth-dependent: %d vs %d", as, as5)
	}
	if ps5 <= ps {
		t.Fatalf("pushback state not growing with depth: %d vs %d", ps, ps5)
	}
}

// TestE7NoForgedFilters asserts the security experiment's invariant.
func TestE7NoForgedFilters(t *testing.T) {
	res := E7HandshakeSecurity()
	tbl := res.Tables[0]
	for i, row := range tbl.Rows {
		if i == len(tbl.Rows)-1 {
			// Control row: the genuine request must succeed.
			if row[1] == "0" {
				t.Fatal("control produced no filter")
			}
			if row[4] != "true" {
				t.Fatal("control flow not blocked")
			}
			continue
		}
		if row[1] != "0" {
			t.Fatalf("vector %q created filters: %v", row[0], row)
		}
		if row[4] != "false" {
			t.Fatalf("vector %q blocked the legit flow", row[0])
		}
	}
}

// TestE9Bound asserts processed requests never exceed the contract.
func TestE9Bound(t *testing.T) {
	res := E9ContractPolicing()
	tbl := res.Tables[0]
	for _, row := range tbl.Rows {
		// columns: offered, received, dropped, processed, bound, filters
		var processed, bound float64
		if _, err := sscan(row[3], &processed); err != nil {
			t.Fatalf("parse %q: %v", row[3], err)
		}
		if _, err := sscan(row[4], &bound); err != nil {
			t.Fatalf("parse %q: %v", row[4], err)
		}
		if processed > bound {
			t.Fatalf("processed %v exceeds bound %v", processed, bound)
		}
		if row[5] != "0" {
			t.Fatalf("fabricated requests created filters: %v", row)
		}
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// TestE3Crossover asserts the protection boundary of §IV-A.2: the
// silenced fraction at or below Nv materially exceeds the fraction at
// 2×Nv.
func TestE3Crossover(t *testing.T) {
	res := E3ProtectedFlows()
	tbl := res.Tables[0]
	var atNv, at2Nv float64
	for _, row := range tbl.Rows {
		var ratio, pct float64
		if _, err := fmt.Sscan(row[1], &ratio); err != nil {
			t.Fatalf("parse ratio %q: %v", row[1], err)
		}
		if _, err := fmt.Sscan(row[4], &pct); err != nil {
			t.Fatalf("parse pct %q: %v", row[4], err)
		}
		switch ratio {
		case 1:
			atNv = pct
		case 2:
			at2Nv = pct
		}
	}
	if atNv < 90 {
		t.Fatalf("silenced%% at Nv = %v, want ≥90", atNv)
	}
	if at2Nv >= atNv-15 {
		t.Fatalf("no degradation beyond Nv: atNv=%v at2Nv=%v", atNv, at2Nv)
	}
}

// TestE4FilterPeaksTrackTtmp asserts nv ≈ R1·Ttmp for well-provisioned
// Ttmp values (rows 2 and 3; row 1 is the deliberate misprovisioning
// ablation).
func TestE4FilterPeaksTrackTtmp(t *testing.T) {
	res := E4VictimGatewayResources()
	tbl := res.Tables[0]
	for i, row := range tbl.Rows {
		if i == 0 {
			continue // Ttmp < handshake: documented fallback regime
		}
		var nv, peak float64
		if _, err := fmt.Sscan(row[1], &nv); err != nil {
			t.Fatalf("parse %q: %v", row[1], err)
		}
		if _, err := fmt.Sscan(row[2], &peak); err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		if peak > nv*1.5+4 {
			t.Fatalf("peak filters %v far above analytic nv %v (row %v)", peak, nv, row)
		}
	}
	// Shadows must peak at exactly mv.
	for _, row := range tbl.Rows {
		if row[3] != row[4] {
			t.Fatalf("shadow peak %s != analytic mv %s", row[4], row[3])
		}
	}
}

// TestE5StopOrderCap asserts the per-client R2 cap of §IV-C/D.
func TestE5StopOrderCap(t *testing.T) {
	res := E5AttackerGatewayResources()
	tbl := res.Tables[0]
	for _, row := range tbl.Rows {
		var na, held float64
		if _, err := fmt.Sscan(row[1], &na); err != nil {
			t.Fatalf("parse %q: %v", row[1], err)
		}
		if _, err := fmt.Sscan(row[2], &held); err != nil {
			t.Fatalf("parse %q: %v", row[2], err)
		}
		if held > na+2 { // +burst slack
			t.Fatalf("client holds %v stop orders, cap na=%v", held, na)
		}
	}
}

// TestE6ShadowOffLeaksMost asserts the ablation ordering.
func TestE6ShadowOffLeaksMost(t *testing.T) {
	res := E6OnOffAblation()
	tbl := res.Tables[0]
	leak := map[string]float64{}
	for _, row := range tbl.Rows {
		var v float64
		if _, err := fmt.Sscan(row[1], &v); err != nil {
			t.Fatalf("parse %q: %v", row[1], err)
		}
		leak[row[0]] = v
	}
	if leak["shadow-off"] <= 2*leak["victim-driven"] {
		t.Fatalf("shadow-off leak %v not much above victim-driven %v", leak["shadow-off"], leak["victim-driven"])
	}
	if leak["gateway-auto"] > leak["victim-driven"] {
		t.Fatalf("gateway-auto leak %v exceeds victim-driven %v", leak["gateway-auto"], leak["victim-driven"])
	}
}

// TestE2DriverRuns smoke-runs the full E2 driver (table generation).
func TestE2DriverRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full E2 sweep in -short mode")
	}
	res := E2EffectiveBandwidth()
	if len(res.Tables) != 2 {
		t.Fatalf("E2 produced %d tables", len(res.Tables))
	}
	if len(res.Tables[0].Rows) != 4 || len(res.Tables[1].Rows) != 3 {
		t.Fatal("E2 sweep sizes wrong")
	}
}

// TestE8DriverRuns smoke-runs the full E8 driver.
func TestE8DriverRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full E8 sweep in -short mode")
	}
	res := E8AITFvsPushback()
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 6 {
		t.Fatalf("E8 shape wrong: %+v", res.Tables)
	}
}

// TestE13DetectionLatency: the detection-latency experiment measures a
// non-zero emergent Td for the sketch detectors, every configuration
// ends with the victim relieved, and real detection costs more
// delivered attack bytes than the Td=0 oracle.
func TestE13DetectionLatency(t *testing.T) {
	res := E13DetectionLatency()
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 4 {
		t.Fatalf("table shape: %+v", res.Tables)
	}
	rows := map[string][]string{}
	for _, r := range res.Tables[0].Rows {
		rows[r[0]] = r
	}
	for _, sketch := range []string{"sketch host", "sketch gateway"} {
		r, ok := rows[sketch]
		if !ok {
			t.Fatalf("missing row %q", sketch)
		}
		if r[1] == "never" || r[1] == "0s" {
			t.Fatalf("%s: measured Td = %q, want emergent non-zero", sketch, r[1])
		}
	}
	for name, r := range rows {
		if r[3] != "0 B/s" {
			t.Fatalf("%s: victim not relieved by run end: %v", name, r)
		}
	}
}

// TestE15AllocSweep pins the collateral-contrast cells: both policies
// aggregate under pressure, and the allocator delivers strictly more
// legit bytes at equal-or-better attack suppression with strictly
// lower covered-address collateral; and each cell is exactly the value
// the deterministic simulator has always produced.
func TestE15AllocSweep(t *testing.T) {
	cells := AllocSweep()
	if len(cells) != 2 || cells[0].Policy != "fixed24" || cells[1].Policy != "alloc" {
		t.Fatalf("sweep shape: %+v", cells)
	}
	fixed, alloc := cells[0], cells[1]
	t.Run("collateral-win", func(t *testing.T) {
		if fixed.Aggregations == 0 || alloc.Aggregations == 0 {
			t.Fatalf("pressure did not force aggregation: %+v", cells)
		}
		if alloc.LegitBytes <= fixed.LegitBytes {
			t.Fatalf("allocator delivered %d legit B vs fixed %d — no collateral win",
				alloc.LegitBytes, fixed.LegitBytes)
		}
		if alloc.AttackBytes > fixed.AttackBytes {
			t.Fatalf("allocator let through %d attack B vs fixed %d",
				alloc.AttackBytes, fixed.AttackBytes)
		}
		if alloc.CollateralAddrs >= fixed.CollateralAddrs {
			t.Fatalf("allocator covered-addr collateral %d not below fixed %d",
				alloc.CollateralAddrs, fixed.CollateralAddrs)
		}
		if alloc.CollateralBytes >= fixed.CollateralBytes {
			t.Fatalf("allocator estimated collateral %d B not below fixed %d B",
				alloc.CollateralBytes, fixed.CollateralBytes)
		}
	})
	// The simulator is deterministic, so both cells are pinned whole: any
	// drift anywhere in the detect→alloc→dataplane chain moves a byte.
	// An intended behaviour change updates these values and explains
	// each one that moved.
	t.Run("pinned", func(t *testing.T) {
		want := []AllocCell{
			{Policy: "fixed24", Attackers: 12, FilterCapacity: 4, AttackBytes: 142000, LegitBytes: 131000,
				Aggregations: 2, CollateralAddrs: 504, CollateralBytes: 55000},
			{Policy: "alloc", Attackers: 12, FilterCapacity: 4, AttackBytes: 142000, LegitBytes: 149000,
				Aggregations: 2, CollateralAddrs: 24, CollateralBytes: 54000},
		}
		for i := range want {
			if cells[i] != want[i] {
				t.Errorf("cell %q drifted:\n got  %+v\n want %+v", want[i].Policy, cells[i], want[i])
			}
		}
	})
}

// TestE16ResilienceHoldsInvariants: every operating point in the
// hostile-network sweep — loss with and without retransmission, and
// the crash/restore rows — must hold all protocol invariants, and the
// retransmission cells must actually repair injected losses.
func TestE16ResilienceHoldsInvariants(t *testing.T) {
	r := E16Resilience()
	if r.ID != "E16" || len(r.Tables) != 2 {
		t.Fatalf("shape: id=%s tables=%d", r.ID, len(r.Tables))
	}
	var out strings.Builder
	r.Render(&out)
	s := out.String()
	if strings.Contains(s, "FAIL") {
		t.Fatalf("render contains FAIL:\n%s", s)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "violations") && !strings.Contains(n, "0 violations") {
			t.Fatalf("violations in sweep: %s", n)
		}
	}
}

// TestE17ClusterCells exercises E17's cell runner on its extreme
// deployments without paying for the full sweep: a replicated cluster
// kill must lose nothing and keep suppression within the 5% acceptance
// bound of the no-crash cluster, independent replicas must lose
// filters somewhere, and every cell must hold all invariants.
func TestE17ClusterCells(t *testing.T) {
	clu := func(replicate, kill bool) scenario.ClusterSpec {
		return scenario.ClusterSpec{Replicas: 3, MergeMs: 250,
			Replicate: replicate, KillReplica: kill}
	}
	repl := runClusterCell("replicated + kill", clu(true, true))
	noCrash := runClusterCell("no crash", clu(true, false))
	indep := runClusterCell("independent + kill", clu(false, true))
	for _, cell := range []ClusterCell{repl, noCrash, indep} {
		if cell.Violations != 0 {
			t.Fatalf("cell %q violated invariants: %+v", cell.Mode, cell)
		}
	}
	if repl.Failovers == 0 || indep.Failovers == 0 {
		t.Fatalf("kills never landed: repl=%d indep=%d", repl.Failovers, indep.Failovers)
	}
	if repl.FiltersLost != 0 {
		t.Fatalf("replicated failover lost %d filters", repl.FiltersLost)
	}
	if indep.FiltersLost == 0 {
		t.Fatal("independent replicas lost nothing — the contrast cell is dead")
	}
	if noCrash.AttackSuppressed > 0 {
		drift := float64(noCrash.AttackSuppressed) - float64(repl.AttackSuppressed)
		if drift/float64(noCrash.AttackSuppressed) > 0.05 {
			t.Fatalf("suppression drift past 5%%: kill %d vs no-crash %d",
				repl.AttackSuppressed, noCrash.AttackSuppressed)
		}
	}
	if repl.MergeRounds == 0 || repl.MergeBytes == 0 {
		t.Fatalf("no replication traffic measured: %+v", repl)
	}
}
