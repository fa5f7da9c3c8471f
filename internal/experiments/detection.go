package experiments

import (
	"fmt"
	"time"

	"aitf"
	"aitf/internal/attack"
	"aitf/internal/core"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/sim"
)

// detectorKind names one detection configuration of E13.
type detectorKind struct {
	name string
	// apply configures opt (and reports whether the victim is a legacy
	// host defended by its gateway).
	apply func(opt *aitf.Options) bool
}

// E13DetectionLatency measures what the paper's n·(Td+Tr)/T bound
// treats as an input: detection latency Td. The oracle detectors used
// elsewhere make Td a parameter (the delay detector literally takes it
// as a constant; the rate oracle's latency is its window). The sketch
// engine of internal/detect makes Td an output — the time for the
// victim's (or its gateway's) measurement structures to accumulate
// proof that the flow crossed the threshold. This experiment runs the
// same Figure-1 flood under each detector and reports the measured Td
// alongside the attack bytes the victim absorbed before relief: the
// leak is ≈ (Td+Tr)·B, so every millisecond of real detection latency
// is paid in delivered attack bytes.
func E13DetectionLatency() Result {
	const (
		// A 200 kB/s flood: well past any sane threshold but under the
		// tail circuit, so every delivered byte is a detection/response
		// leak rather than queue-overflow noise.
		rate    = 200_000.0
		horizon = 6 * time.Second
	)
	threshold := 25_000.0
	window := 500 * time.Millisecond

	kinds := []detectorKind{
		{"oracle Td=0", func(opt *aitf.Options) bool {
			opt.Detector = func() core.Detector { return attack.NewDelayDetector(0) }
			return false
		}},
		{"rate oracle", func(opt *aitf.Options) bool {
			opt.Detector = func() core.Detector { return attack.NewRateDetector(threshold, window) }
			return false
		}},
		{"sketch host", func(opt *aitf.Options) bool {
			opt.Detector = func() core.Detector {
				return detect.NewHostDetector(detect.Config{
					ThresholdBps: threshold, Window: window, Seed: 13,
				})
			}
			return false
		}},
		{"sketch gateway", func(opt *aitf.Options) bool {
			opt.Detector = nil
			opt.GatewayDetect = detect.Config{
				ThresholdBps: threshold, Window: window, Seed: 13,
			}
			return true
		}},
	}

	table := NewTable("E13 — detection latency and its price (Figure-1 chain, 200 kB/s flood)",
		"detector", "measured Td", "attack KB delivered", "victim bw after relief")
	notes := []string{}

	for _, k := range kinds {
		opt := aitf.DefaultOptions()
		legacy := k.apply(&opt)
		dep := aitf.DeployChain(aitf.ChainOptions{
			Options:              opt,
			Depth:                3,
			GatewayDefendsVictim: legacy,
		})
		fl := dep.Flood(dep.Attacker, dep.Victim, rate)
		start := 100 * time.Millisecond
		fl.Start = sim.Time(start)
		fl.Launch()
		dep.Run(horizon)

		// Measured Td: first attack-detected event minus flood start.
		td := time.Duration(-1)
		label := flow.PairLabel(dep.Attacker.Node().Addr(), dep.Victim.Node().Addr()).Key()
		for _, e := range dep.Log.OfKind(aitf.EvAttackDetected) {
			if e.Flow.Key() == label {
				td = e.At - sim.Time(start)
				break
			}
		}
		// Victim bandwidth over the last two seconds: relief quality.
		var tailBytes uint64
		lastWindow := int64((horizon - 2*time.Second) / time.Second)
		for _, b := range dep.Victim.Meter.Buckets() {
			if b.Index >= lastWindow {
				tailBytes += b.Bytes
			}
		}
		tdCell := "never"
		if td >= 0 {
			tdCell = td.Round(time.Millisecond).String()
		}
		table.AddRow(k.name, tdCell,
			float64(dep.Victim.Meter.Bytes)/1e3,
			FormatBps(float64(tailBytes)/2))
	}

	notes = append(notes,
		fmt.Sprintf("threshold %.0f B/s over %v; sketch Td is emergent (accumulate-to-threshold + window alignment), oracle Td is assumed", threshold, window),
		"measured Td is flood-start to detection event, so it includes propagation to the detection point: even the Td=0 oracle pays the one-way trip",
		"the delivered-bytes gap between rows is the measured cost of real detection: the paper's bound charges it as n·(Td+Tr)/T",
		"'sketch gateway' defends a legacy victim that files no requests itself — detection, requests, and handshake all run at v_gw1; detecting upstream of the victim also skips the victim->gateway request trip, which is why it beats host-side detection on delivered bytes")
	return Result{
		ID:     "E13",
		Title:  "detection latency: oracle vs sketch measurement engine (beyond the paper)",
		Tables: []*Table{table},
		Notes:  notes,
	}
}
