// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see EXPERIMENTS.md). Each benchmark runs the corresponding
// experiment driver end to end — topology build, attack workload,
// protocol, measurement — and reports domain metrics alongside ns/op.
//
//	go test -bench=. -benchmem
//
// regenerates every experiment; `go run ./cmd/aitf-bench` prints the
// full tables instead. End-to-end throughput and latency are measured
// by `go run ./benchmark`, not here.
package aitf_test

import (
	"strconv"
	"testing"
	"time"

	"aitf"
	"aitf/internal/attack"
	"aitf/internal/core"
	"aitf/internal/experiments"
	"aitf/internal/sim"
)

// BenchmarkFigure1Escalation regenerates E1 (Figure 1, §II-D): the
// four escalation scenarios of the walk-through.
func BenchmarkFigure1Escalation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E1Figure1()
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkEffectiveBandwidth regenerates E2 (§IV-A.1): the r ≈
// n(Td+Tr)/T sweeps. The measured-to-analytic ratio for n=1 is
// reported as a custom metric.
func BenchmarkEffectiveBandwidth(b *testing.B) {
	td, tr := 50*time.Millisecond, 50*time.Millisecond
	var last float64
	for i := 0; i < b.N; i++ {
		last = 0
		for n := 1; n <= 4; n++ {
			measured := experiments.E2Run(n, time.Minute, td, tr, aitf.VictimDriven)
			if n == 1 {
				last = measured / aitf.BandwidthReduction(1, td, tr, time.Minute)
			}
		}
	}
	b.ReportMetric(last, "r-measured/analytic")
}

// BenchmarkProtectedFlows regenerates E3 (§IV-A.2): Nv = R1·T.
func BenchmarkProtectedFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E3ProtectedFlows()
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkVictimGatewayResources regenerates E4 (§IV-B): nv = R1·Ttmp
// and mv = R1·T.
func BenchmarkVictimGatewayResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E4VictimGatewayResources()
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkAttackerGatewayResources regenerates E5 (§IV-C/D): na = R2·T.
func BenchmarkAttackerGatewayResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E5AttackerGatewayResources()
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkOnOffAttack regenerates E6 (§II-B): shadow-cache ablation
// against a pulsing attacker.
func BenchmarkOnOffAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E6OnOffAblation()
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkHandshakeSecurity regenerates E7 (§II-E/III-B): forged
// filtering requests die in the handshake.
func BenchmarkHandshakeSecurity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E7HandshakeSecurity()
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkAITFvsPushback regenerates E8 (§V): the baseline comparison.
func BenchmarkAITFvsPushback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E8AITFvsPushback()
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkContractPolicing regenerates E9 (§II-B): request-flood
// policing.
func BenchmarkContractPolicing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E9ContractPolicing()
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkOneRound measures the protocol's end-to-end cost for a
// single cooperative round on Figure 1 — the latency-critical path.
func BenchmarkOneRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dep := aitf.DeployFigure1(aitf.DefaultOptions())
		fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
		fl.Launch()
		dep.Run(2 * time.Second)
		if dep.Log.Count(aitf.EvFilterInstalled) == 0 {
			b.Fatal("round failed")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw packet-event throughput of
// the deployed Figure-1 network (packets forwarded per benchmark op).
func BenchmarkSimulatorThroughput(b *testing.B) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil // pure forwarding
	dep := aitf.DeployFigure1(opt)
	fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
	fl.Launch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.Run(10 * time.Millisecond)
	}
}

// BenchmarkArmyScale measures a many-to-one deployment under a zombie
// army, by army size.
func BenchmarkArmyScale(b *testing.B) {
	for _, zombies := range []int{10, 50, 100} {
		b.Run("zombies="+strconv.Itoa(zombies), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := aitf.DefaultOptions()
				dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{
					Options:            opt,
					Attackers:          zombies,
					AttackersCompliant: true,
				})
				army := &attack.Army{
					Zombies:       dep.Attackers,
					Dst:           dep.Victim.Node().Addr(),
					RatePerZombie: 100_000,
					PacketSize:    1000,
					Stagger:       time.Second,
				}
				army.Launch()
				dep.Run(3 * time.Second)
			}
		})
	}
}

// BenchmarkDeployArmy measures building a many-to-one army and
// launching its zombies, without running it: the setup that sim_army's
// setup_s times, whose cost is mostly allocation.
func BenchmarkDeployArmy(b *testing.B) {
	for _, zombies := range []int{500, 5000} {
		b.Run("zombies="+strconv.Itoa(zombies), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{
					Options:            aitf.DefaultOptions(),
					Attackers:          zombies,
					AttackersCompliant: true,
				})
				army := &attack.Army{
					Zombies:       dep.Attackers,
					Dst:           dep.Victim.Node().Addr(),
					RatePerZombie: 200_000,
					PacketSize:    1000,
					Stagger:       2 * time.Second,
				}
				army.Launch()
			}
		})
	}
}

// BenchmarkShadowModeAblation compares the three reappearance-handling
// modes on the same on-off attack (EXPERIMENTS.md ablation 1).
func BenchmarkShadowModeAblation(b *testing.B) {
	for _, mode := range []aitf.ShadowMode{aitf.VictimDriven, aitf.GatewayAuto, aitf.ShadowOff} {
		b.Run(mode.String(), func(b *testing.B) {
			var leak uint64
			for i := 0; i < b.N; i++ {
				opt := aitf.DefaultOptions()
				opt.ShadowMode = mode
				dep := aitf.DeployChain(aitf.ChainOptions{
					Options:        opt,
					Depth:          3,
					NonCooperative: map[int]bool{0: true},
				})
				fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
				fl.On = 300 * time.Millisecond
				fl.Off = time.Second
				fl.Launch()
				dep.Run(10 * time.Second)
				leak = dep.Victim.Meter.Bytes
			}
			b.ReportMetric(float64(leak)/1e3, "leakKB")
		})
	}
}

// BenchmarkTtmpSweep ablates the temporary-filter lifetime (EXPERIMENTS.md
// ablation 2): too small causes escalation storms and long-block
// fallbacks; larger is stable.
func BenchmarkTtmpSweep(b *testing.B) {
	for _, ttmp := range []time.Duration{300 * time.Millisecond, 600 * time.Millisecond, 1200 * time.Millisecond} {
		b.Run(ttmp.String(), func(b *testing.B) {
			var escalations int
			for i := 0; i < b.N; i++ {
				opt := aitf.DefaultOptions()
				opt.Timers.Ttmp = ttmp
				opt.Detector = func() core.Detector {
					return attack.NewDelayDetector(sim.Time(50 * time.Millisecond))
				}
				dep := aitf.DeployFigure1(opt)
				fl := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
				fl.Launch()
				dep.Run(5 * time.Second)
				escalations = dep.Log.Count(aitf.EvEscalated)
			}
			b.ReportMetric(float64(escalations), "escalations")
		})
	}
}
