package experiments

// E16: resilience under a hostile network. The paper assumes the
// control plane is best-effort and leans on the victim's periodic
// re-requests to recover lost signaling; this experiment measures how
// much attack traffic leaks through while control messages are being
// lost, with and without the bounded-retransmission messenger, and
// shows that a victim-gateway crash mid-attack keeps filtering after
// restore because snapshots preserve the original filter deadlines.

import (
	"fmt"

	"aitf/internal/scenario"
)

// ResilienceCell is one control-plane-loss operating point averaged
// over the seed set.
type ResilienceCell struct {
	// CtrlLossPct is the seeded control-packet loss on backbone links.
	CtrlLossPct float64 `json:"ctrl_loss_pct"`
	// Retransmit reports whether the reliable messenger was armed.
	Retransmit bool `json:"retransmit"`
	// VictimBytes is the traffic (attack + legit) that reached victims.
	VictimBytes uint64 `json:"victim_bytes"`
	// AttackSuppressed is attacker sends withheld by stop-order
	// compliance — higher means the handshake completed despite loss.
	AttackSuppressed uint64 `json:"attack_suppressed"`
	// CtrlRetransmits / CtrlLossDrops are the messenger's repair work
	// and the fault injector's control-packet kills.
	CtrlRetransmits uint64 `json:"ctrl_retransmits"`
	CtrlLossDrops   uint64 `json:"ctrl_loss_drops"`
	// Violations counts invariant violations across the seed set
	// (must be zero: loss degrades latency, never correctness).
	Violations int `json:"violations"`
}

// e16Seeds is the fixed seed set every cell runs; the scenarios are
// pure functions of (seed, faults), so cells differ only in the fault
// mix and the table is machine-independent. The seeds are chosen for
// activity on the path under test: each draws compliant attackers
// that honor stop orders, so a lost or repaired handshake moves the
// suppressed-sends column.
var e16Seeds = []int64{10, 12, 24, 28, 39}

func runResilienceCell(faults scenario.FaultSpec) ResilienceCell {
	cell := ResilienceCell{CtrlLossPct: faults.CtrlLossPct, Retransmit: faults.Retransmit}
	for _, seed := range e16Seeds {
		spec := scenario.GenSpec(seed)
		spec.Faults = faults
		res := scenario.Run(spec)
		cell.VictimBytes += res.VictimBytes
		cell.AttackSuppressed += res.AttackSuppressed
		cell.CtrlRetransmits += res.CtrlRetransmits
		cell.CtrlLossDrops += res.CtrlLossDrops
		cell.Violations += len(res.Violations)
	}
	return cell
}

// E16Resilience sweeps control-plane loss 0–20% with the reliable
// messenger off and on, then crashes the victim's gateway mid-attack
// and restores it from its snapshot, checking every protocol invariant
// at each operating point.
func E16Resilience() Result {
	lossTable := NewTable("Control-plane loss vs. filtering outcome (5 seeds per cell)",
		"ctrl loss %", "retransmit", "victim bytes", "suppressed sends", "retransmits", "losses injected", "violations")
	var base, worst ResilienceCell
	for _, loss := range []float64{0, 5, 10, 20} {
		for _, retx := range []bool{false, true} {
			if loss == 0 && retx {
				continue // no loss to repair; identical to the base row
			}
			cell := runResilienceCell(scenario.FaultSpec{CtrlLossPct: loss, Retransmit: retx})
			lossTable.AddRow(fmt.Sprintf("%.0f", loss), onOff(retx),
				cell.VictimBytes, cell.AttackSuppressed,
				cell.CtrlRetransmits, cell.CtrlLossDrops, cell.Violations)
			if loss == 0 {
				base = cell
			}
			if loss == 20 && retx {
				worst = cell
			}
		}
	}
	lossTable.AddNote("loss is injected on backbone links only and only on control packets")

	crashTable := NewTable("Victim-gateway crash/restore mid-attack (5 seeds)",
		"fault mix", "gateway crashes", "victim bytes", "suppressed sends", "violations")
	for _, faults := range []scenario.FaultSpec{
		{CrashVictimGW: true},
		{CrashVictimGW: true, CtrlLossPct: 5, Flaps: 2, Retransmit: true},
	} {
		cell := runResilienceCell(faults)
		crashes := 0
		for _, seed := range e16Seeds {
			spec := scenario.GenSpec(seed)
			spec.Faults = faults
			crashes += scenario.Run(spec).GatewayCrashes
		}
		mix := "crash only"
		if faults.CtrlLossPct > 0 {
			mix = fmt.Sprintf("crash + %.0f%% loss + %d flaps + retransmit",
				faults.CtrlLossPct, faults.Flaps)
		}
		crashTable.AddRow(mix, crashes, cell.VictimBytes, cell.AttackSuppressed, cell.Violations)
	}
	crashTable.AddNote("restore replays the pre-crash snapshot; filters keep their original deadlines")

	notes := []string{
		fmt.Sprintf("- fault-free baseline: %d victim bytes, %d suppressed sends.",
			base.VictimBytes, base.AttackSuppressed),
		fmt.Sprintf("- at 20%% control loss with retransmission: %d victim bytes, %d retransmits repaired %d injected losses, %d violations.",
			worst.VictimBytes, worst.CtrlRetransmits, worst.CtrlLossDrops, worst.Violations),
		"- every cell holds all protocol invariants: a hostile network slows filtering (more victim bytes before the stop) but never breaks safety.",
	}
	return Result{
		ID:     "E16",
		Title:  "resilience: control-plane loss, retransmission, and gateway crash/restore",
		Tables: []*Table{lossTable, crashTable},
		Notes:  notes,
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
