package experiments

import (
	"time"

	"aitf"
	"aitf/internal/attack"
	"aitf/internal/contract"
	"aitf/internal/core"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// scaledOptions returns options with contract rates and timers scaled
// down so the claims of §IV can be validated in seconds of virtual
// time instead of minutes. The formulas are linear in the rates and
// timers, so the scaling preserves every ratio the paper computes.
func scaledOptions(r1 float64, T, ttmp time.Duration) aitf.Options {
	opt := aitf.DefaultOptions()
	opt.Timers.T = T
	opt.Timers.Ttmp = ttmp
	opt.ClientContract.R1 = r1
	opt.ClientContract.R1Burst = 4
	opt.ReRequestGap = 400 * time.Millisecond
	opt.Detector = func() core.Detector {
		return attack.NewDelayDetector(sim.Time(20 * time.Millisecond))
	}
	return opt
}

// E3ProtectedFlows regenerates §IV-A.2: a client with request rate R1
// is protected against Nv = R1·T simultaneous undesired flows; beyond
// Nv the request budget saturates and flows go unfiltered.
func E3ProtectedFlows() Result {
	res := Result{ID: "E3", Title: "§IV-A.2 number of protected flows, Nv = R1·T"}

	r1 := 10.0
	T := 10 * time.Second
	nv := contract.ProtectedFlows(r1, T) // 100

	tbl := NewTable("offered undesired flows vs protection (scaled: R1=10/s, T=10s, Nv=100)",
		"offered flows", "offered/Nv", "flows silenced", "still active", "silenced %")
	for _, offered := range []int{50, 100, 150, 200} {
		opt := scaledOptions(r1, T, 600*time.Millisecond)
		dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{
			Options:            opt,
			Attackers:          offered,
			AttackersCompliant: true,
		})
		army := &attack.Army{
			Zombies:       dep.Attackers,
			Dst:           dep.Victim.Node().Addr(),
			RatePerZombie: 5000,
			PacketSize:    500,
			Stagger:       T, // arrivals spread over T: offered/T flows per second
		}
		army.Launch()
		horizon := T + 4*time.Second
		dep.Run(horizon)

		// A flow counts as silenced if, over the final two seconds, it
		// delivered under 20% of its unfiltered volume (brief leaks
		// during refresh cycles do not count as "active").
		windowSecs := int64(dep.Now()/time.Second) - 2
		perFlowFull := uint64(5000 * 2)
		silenced := 0
		for _, a := range dep.Attackers {
			m := dep.Victim.PerSource[a.Node().Addr()]
			var got uint64
			if m != nil {
				for _, b := range m.Buckets() {
					if b.Index >= windowSecs {
						got += b.Bytes
					}
				}
			}
			if got*5 < perFlowFull {
				silenced++
			}
		}
		active := offered - silenced
		tbl.AddRow(offered, float64(offered)/float64(nv), silenced, active,
			100*float64(silenced)/float64(offered))
	}
	tbl.AddNote("paper example at full scale: R1=100/s, T=1min protects against Nv=6000 simultaneous flows")
	res.Tables = append(res.Tables, tbl)

	paper := NewTable("paper-scale analytic values (formula Nv = R1·T)",
		"R1 (req/s)", "T", "Nv")
	paper.AddRow(100.0, time.Minute, contract.ProtectedFlows(100, time.Minute))
	paper.AddRow(10.0, time.Minute, contract.ProtectedFlows(10, time.Minute))
	paper.AddRow(100.0, 30*time.Second, contract.ProtectedFlows(100, 30*time.Second))
	res.Tables = append(res.Tables, paper)

	res.Notes = append(res.Notes,
		"Shape check: ≈100% of flows are silenced while offered ≤ Nv; beyond Nv the surplus stays active because the contract rate is exhausted.")
	return res
}

// E4VictimGatewayResources regenerates §IV-B: the victim's gateway
// serves R1 requests/second with only nv = R1·Ttmp wire-speed filters
// and mv = R1·T shadow entries.
func E4VictimGatewayResources() Result {
	res := Result{ID: "E4", Title: "§IV-B victim-gateway resources, nv = R1·Ttmp and mv = R1·T"}

	r1 := 20.0
	T := 10 * time.Second

	tbl := NewTable("measured peaks at the victim's gateway (scaled: R1=20/s, T=10s)",
		"Ttmp", "analytic nv", "peak filters", "analytic mv", "peak shadows")
	for _, ttmp := range []time.Duration{300 * time.Millisecond, 600 * time.Millisecond, 1200 * time.Millisecond} {
		opt := scaledOptions(r1, T, ttmp)
		offered := int(r1 * T.Seconds()) // drive the gateway at exactly R1
		dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{
			Options:            opt,
			Attackers:          offered,
			AttackersCompliant: true,
		})
		army := &attack.Army{
			Zombies:       dep.Attackers,
			Dst:           dep.Victim.Node().Addr(),
			RatePerZombie: 5000,
			PacketSize:    500,
			Stagger:       T,
		}
		army.Launch()
		dep.Run(T + 2*time.Second)

		fstats := dep.VictimGW.Filters().Stats()
		sstats := dep.VictimGW.Shadows().Stats()
		p := contract.Provision(opt.ClientContract, opt.Timers)
		tbl.AddRow(ttmp, p.VictimGatewayFilters, fstats.PeakOccupancy, p.VictimGatewayShadows, sstats.PeakSize)
	}
	tbl.AddNote("peak filters tracks R1·Ttmp (plus the policer burst), two orders of magnitude below the flow count")
	tbl.AddNote("a Ttmp below the handshake+grace time (first row) misfires the takeover check and falls back to long-lived local filters — the misprovisioning ablation in EXPERIMENTS.md")
	res.Tables = append(res.Tables, tbl)

	paper := NewTable("paper-scale analytic values (§IV-B example)",
		"R1 (req/s)", "Ttmp", "T", "nv filters", "mv shadows")
	p := contract.Provision(contract.Contract{R1: 100}, contract.Timers{T: time.Minute, Ttmp: 600 * time.Millisecond})
	paper.AddRow(100.0, 600*time.Millisecond, time.Minute, p.VictimGatewayFilters, p.VictimGatewayShadows)
	res.Tables = append(res.Tables, paper)
	res.Notes = append(res.Notes,
		"Paper example: 60 filters + 6000 DRAM shadows protect a client against 6000 flows.")
	return res
}

// E5AttackerGatewayResources regenerates §IV-C/D: the attacker's
// provider relays stop orders to one misbehaving client at rate R2, so
// client-held filters (stop orders) track na = R2·T; the provider's own
// filter count tracks the admitted-request arrival rate times T.
func E5AttackerGatewayResources() Result {
	res := Result{ID: "E5", Title: "§IV-C/D attacker-side resources, na = R2·T"}

	T := 20 * time.Second
	victims := 16
	tbl := NewTable("one misbehaving client, 16 flows to distinct victims (scaled: T=20s)",
		"R2 (req/s)", "analytic na = R2*T", "stop orders at client", "gw filters (arrival*T)")
	for _, r2 := range []float64{0.25, 0.5, 2} {
		opt := aitf.DefaultOptions()
		opt.Timers.T = T
		opt.ClientContract.R2 = r2
		opt.ClientContract.R2Burst = 1
		opt.ReRequestGap = 400 * time.Millisecond
		opt.Detector = func() core.Detector {
			return attack.NewDelayDetector(sim.Time(20 * time.Millisecond))
		}
		dep := aitf.DeploySharedGateway(aitf.SharedGatewayOptions{
			Options:            opt,
			Attackers:          1,
			Victims:            victims,
			AttackersCompliant: true,
		})
		// The single client floods every victim: 16 distinct undesired
		// flows from one client network, staggered one per second.
		for i, v := range dep.Victims {
			fl := dep.Flood(dep.Attackers[0], v, 40_000)
			fl.PacketSize = 500
			fl.Start = sim.Time(i) * time.Second
			fl.Launch()
		}
		dep.Run(sim.Time(victims)*time.Second + 2*time.Second)

		na := int(r2 * T.Seconds())
		tbl.AddRow(r2, na,
			dep.Attackers[0].ActiveStopOrders(),
			dep.AttackGW.Filters().Stats().PeakOccupancy)
	}
	tbl.AddNote("stop orders at the client are capped by the R2 contract (na = R2*T + burst); the provider filters every verified flow regardless, so the client cap never weakens protection")
	res.Tables = append(res.Tables, tbl)

	paper := NewTable("paper-scale analytic values (§IV-C example)",
		"R2 (req/s)", "T", "na filters")
	paper.AddRow(1.0, time.Minute, contract.Provision(contract.Contract{R2: 1}, contract.Timers{T: time.Minute}).AttackerGatewayFilters)
	res.Tables = append(res.Tables, paper)
	res.Notes = append(res.Notes,
		"Paper example: R2=1/s, T=1min needs only na=60 filters at the provider and 60 at the client.",
		"Shape check: client-held stop orders saturate at ≈ R2·T + burst while the provider keeps blocking all flows.")
	return res
}

// E9ContractPolicing regenerates the §II-B resource-bound argument: a
// client flooding its gateway with filtering requests gets policed to
// the contract rate; CPU-proxy work and filter usage stay bounded.
func E9ContractPolicing() Result {
	res := Result{ID: "E9", Title: "§II-B contract policing under a filtering-request flood"}

	r1 := 20.0
	horizon := 10 * time.Second
	tbl := NewTable("request flood from one client (scaled: R1=20/s, burst 4, 10 s horizon)",
		"offered rate (req/s)", "received", "policer-dropped", "fully processed", "bound R1*t+burst", "filters created")
	for _, mult := range []float64{1, 2, 10} {
		opt := scaledOptions(r1, 10*time.Second, 600*time.Millisecond)
		opt.Detector = nil
		dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{Options: opt, Attackers: 1, Legit: 0})

		rf := &attack.RequestFlood{
			From:    dep.Victim,
			Gateway: dep.VictimGW.Node().Addr(),
			Rate:    mult * r1,
			Count:   int(mult * r1 * horizon.Seconds()),
			Victim:  dep.Victim.Node().Addr(),
			MakeEvidence: func(i int) []packet.RREntry {
				// Fabricated evidence: correct router address, wrong
				// authenticator (the forger has no router secret).
				return []packet.RREntry{{Router: dep.VictimGW.Node().Addr(), Nonce: uint64(i)}}
			},
		}
		rf.Launch()
		dep.Run(horizon + time.Second)

		st := dep.VictimGW.Stats()
		processed := st.ReqReceived - st.ReqPoliced
		bound := r1*horizon.Seconds() + 4 // + burst
		tbl.AddRow(mult*r1, st.ReqReceived, st.ReqPoliced, processed, bound,
			dep.VictimGW.Filters().Stats().Installed)
	}
	tbl.AddNote("fully-processed requests never exceed R1·t + burst regardless of the offered rate; fabricated evidence then fails route-record verification, so zero filters are spent")
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Shape check: policing makes request-processing cost a function of the contract, not of the attacker's enthusiasm (§II-B).")
	return res
}
