package aitf

import (
	"testing"
	"time"

	"aitf/internal/detect"
)

// gatewayDetectOptions arms gateway-side sketch detection with the
// same sensitivity the default host-side oracle uses.
func gatewayDetectOptions() Options {
	opt := DefaultOptions()
	opt.GatewayDetect = detect.Config{
		ThresholdBps: 25_000,
		Window:       500 * time.Millisecond,
	}
	return opt
}

// TestGatewayDefendsLegacyVictim replays the Figure-1 chain with the
// victim modelled as a legacy, non-AITF host: it has no detector and
// files no requests. Its gateway runs the sketch engine on its behalf,
// detects the flood, plays the victim in the §II-E handshake, and the
// full protocol round still lands the T-filter on the attacker's
// gateway — the new deployment scenario gateway-side detection opens.
func TestGatewayDefendsLegacyVictim(t *testing.T) {
	t.Run("per-packet", func(t *testing.T) {
		opt := gatewayDetectOptions()
		dep := DeployChain(ChainOptions{Options: opt, Depth: 3, GatewayDefendsVictim: true})
		fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
		fl.Launch()
		dep.Run(5 * time.Second)

		vgw := dep.VictimGWs[0]
		if vgw.Detector() == nil {
			t.Fatal("victim gateway has no detection engine")
		}
		if st := vgw.Stats(); st.Detections == 0 {
			t.Fatalf("gateway never detected the flood: %+v", st)
		}
		if st := dep.Victim.Stats(); st.RequestsSent != 0 {
			t.Fatalf("legacy victim filed %d requests itself", st.RequestsSent)
		}
		// Detection events come from the gateway node, not the host.
		dets := dep.Log.OfKind(EvAttackDetected)
		if len(dets) == 0 || dets[0].Node != "v_gw1" {
			t.Fatalf("detection events = %v, want from v_gw1", dets)
		}
		if dep.Log.Count(EvHandshakeOK) == 0 {
			t.Fatalf("handshake never completed (the gateway must answer as victim):\n%s", dep.Log)
		}
		installed := dep.Log.OfKind(EvFilterInstalled)
		if len(installed) == 0 || installed[0].Node != "a_gw1" {
			t.Fatalf("T-filter did not land on a_gw1: %v", installed)
		}
		// The legacy victim is actually protected: only the
		// pre-detection leak gets through.
		eff := dep.Victim.Meter.BandwidthOver(dep.Now())
		if ratio := eff / attackRate; ratio > 0.08 {
			t.Fatalf("legacy victim still receives %.2f%% of the flood", 100*ratio)
		}
	})
}

// TestGatewayDetectionEscalates: with non-cooperative attacker-side
// gateways, the gateway-detected flow escalates exactly as a
// victim-requested one does, ending in filtering at a cooperating node.
func TestGatewayDetectionEscalates(t *testing.T) {
	opt := gatewayDetectOptions()
	dep := DeployChain(ChainOptions{
		Options:              opt,
		Depth:                3,
		GatewayDefendsVictim: true,
		NonCooperative:       map[int]bool{0: true}, // a_gw1 colludes
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.Launch()
	dep.Run(8 * time.Second)

	if dep.Log.Count(EvEscalated) == 0 {
		t.Fatalf("gateway-detected flow never escalated past the colluder:\n%s", dep.Log)
	}
	eff := dep.Victim.Meter.BandwidthOver(dep.Now())
	if ratio := eff / attackRate; ratio > 0.2 {
		t.Fatalf("victim still receives %.2f%% of the flood after escalation", 100*ratio)
	}
}

// TestGatewayDetectionDeterministic: two identical runs produce the
// same protocol trace, including detection timing.
func TestGatewayDetectionDeterministic(t *testing.T) {
	run := func() (int, uint64, uint64) {
		opt := gatewayDetectOptions()
		dep := DeployChain(ChainOptions{Options: opt, Depth: 2, GatewayDefendsVictim: true})
		fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
		fl.Launch()
		dep.Run(4 * time.Second)
		return dep.Log.Len(), dep.Victim.Meter.Bytes, dep.VictimGWs[0].Stats().Detections
	}
	e1, b1, d1 := run()
	e2, b2, d2 := run()
	if e1 != e2 || b1 != b2 || d1 != d2 {
		t.Fatalf("runs diverged: events %d/%d, bytes %d/%d, detections %d/%d", e1, e2, b1, b2, d1, d2)
	}
	if d1 == 0 {
		t.Fatal("no detections in deterministic run")
	}
}
