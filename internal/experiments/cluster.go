package experiments

// E17: gateway clustering and failover. The paper sizes one filtering
// router per AS edge; a production deployment runs a cluster of
// replicas behind that edge. This experiment kills a replica of the
// victim's serving gateway mid-attack and measures what the failover
// costs: a replicated cluster (sketch-merging replicas + replicated
// filter log) must lose zero filters and keep stop-order suppression
// within a few percent of a cluster that never crashed, while
// independent replicas (replication off) demonstrably lose the dead
// replica's filter view. A second table prices the replication
// traffic per merge interval.

import (
	"fmt"
	"time"

	"aitf/internal/scenario"
)

// ClusterCell is one cluster operating point summed over the seed set.
type ClusterCell struct {
	// Mode names the configuration under test.
	Mode string `json:"mode"`
	// VictimBytes is the traffic (attack + legit) that reached victims.
	VictimBytes uint64 `json:"victim_bytes"`
	// AttackSuppressed is attacker sends withheld by stop-order
	// compliance — the "attack bytes stopped at the source" column.
	AttackSuppressed uint64 `json:"attack_suppressed"`
	// Failovers / FiltersInherited / FiltersLost are the kill's ledger.
	Failovers        uint64 `json:"failovers"`
	FiltersInherited uint64 `json:"filters_inherited"`
	FiltersLost      uint64 `json:"filters_lost"`
	// MergeRounds / MergeBytes are the replication overhead.
	MergeRounds uint64 `json:"merge_rounds"`
	MergeBytes  uint64 `json:"merge_bytes"`
	// Violations counts invariant violations across the seed set (must
	// be zero in every mode: losing filters is a robustness gap, never
	// a protocol violation).
	Violations int `json:"violations"`
}

// e17Seeds is the fixed seed set every cell runs (the E16 set: each
// draws compliant attackers, so suppression moves with filtering).
var e17Seeds = []int64{10, 12, 24, 28, 39}

// e17Spec shapes one run: gateway-side detection so the cluster's
// sharded engines do the detecting, and an attack long enough that the
// mid-attack kill lands while filters are live.
func e17Spec(seed int64, clu scenario.ClusterSpec) scenario.Spec {
	spec := scenario.GenSpec(seed)
	spec.Detector = scenario.DetectorGateway
	if spec.AttackDur < 5*time.Second {
		spec.AttackDur = 5 * time.Second
	}
	spec.Cluster = clu
	return spec
}

func runClusterCell(mode string, clu scenario.ClusterSpec) ClusterCell {
	cell := ClusterCell{Mode: mode}
	for _, seed := range e17Seeds {
		res := scenario.Run(e17Spec(seed, clu))
		cell.VictimBytes += res.VictimBytes
		cell.AttackSuppressed += res.AttackSuppressed
		cell.Failovers += res.ClusterFailovers
		cell.FiltersInherited += res.ClusterFiltersInherited
		cell.FiltersLost += res.ClusterFiltersLost
		cell.MergeRounds += res.ClusterMergeRounds
		cell.MergeBytes += res.ClusterMergeBytes
		cell.Violations += len(res.Violations)
	}
	return cell
}

// E17ClusterFailover compares a replica kill mid-attack across four
// deployments — replicated cluster, independent replicas, a cluster
// that never crashes, and the classic single gateway — then sweeps the
// merge interval to price replication traffic.
func E17ClusterFailover() Result {
	three := func(replicate, kill bool) scenario.ClusterSpec {
		return scenario.ClusterSpec{Replicas: 3, MergeMs: 250,
			Replicate: replicate, KillReplica: kill}
	}
	failTable := NewTable("Replica kill mid-attack vs. filtering outcome (5 seeds per cell)",
		"deployment", "victim bytes", "suppressed sends", "failovers",
		"filters inherited", "filters lost", "violations")
	cells := map[string]ClusterCell{}
	for _, row := range []struct {
		mode string
		clu  scenario.ClusterSpec
	}{
		{"replicated cluster + kill", three(true, true)},
		{"independent replicas + kill", three(false, true)},
		{"cluster, no crash", three(true, false)},
		{"single gateway", scenario.ClusterSpec{}},
	} {
		cell := runClusterCell(row.mode, row.clu)
		cells[row.mode] = cell
		failTable.AddRow(row.mode, cell.VictimBytes, cell.AttackSuppressed,
			cell.Failovers, cell.FiltersInherited, cell.FiltersLost, cell.Violations)
	}
	failTable.AddNote("the kill removes one logical replica's detection slice and log view; installed dataplane filters never vanish")

	mergeTable := NewTable("Replication overhead per merge interval (replicated cluster + kill, 5 seeds per cell)",
		"merge interval ms", "merge rounds", "merge bytes", "bytes/round", "filters lost")
	for _, ms := range []int{250, 500, 1000} {
		clu := three(true, true)
		clu.MergeMs = ms
		cell := runClusterCell(fmt.Sprintf("merge %dms", ms), clu)
		perRound := uint64(0)
		if cell.MergeRounds > 0 {
			perRound = cell.MergeBytes / cell.MergeRounds
		}
		mergeTable.AddRow(ms, cell.MergeRounds, cell.MergeBytes, perRound, cell.FiltersLost)
	}
	mergeTable.AddNote("merge bytes count live sketch cells plus heavy-hitter entries actually exchanged; a quiet engine ships nothing")

	repl, noCrash := cells["replicated cluster + kill"], cells["cluster, no crash"]
	indep := cells["independent replicas + kill"]
	drift := 0.0
	if noCrash.AttackSuppressed > 0 {
		drift = 100 * (float64(noCrash.AttackSuppressed) - float64(repl.AttackSuppressed)) /
			float64(noCrash.AttackSuppressed)
	}
	notes := []string{
		fmt.Sprintf("- replicated failover: %d filters inherited, %d lost across %d kills.",
			repl.FiltersInherited, repl.FiltersLost, repl.Failovers),
		fmt.Sprintf("- independent replicas lost %d filters on the same kills — the gap replication closes.",
			indep.FiltersLost),
		fmt.Sprintf("- suppression drift vs. the no-crash cluster: %.1f%% (acceptance bound 5%%).", drift),
		"- every cell holds all protocol invariants; replication changes robustness, not safety.",
	}
	return Result{
		ID:     "E17",
		Title:  "gateway cluster: failover without losing a filter",
		Tables: []*Table{failTable, mergeTable},
		Notes:  notes,
	}
}
