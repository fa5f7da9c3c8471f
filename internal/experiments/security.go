package experiments

import (
	"time"

	"aitf"
	"aitf/internal/attack"
	"aitf/internal/packet"
)

// E7HandshakeSecurity regenerates §II-E/§III-B: a malicious node
// cannot abuse AITF to block someone else's legitimate flow. Three
// attack vectors are tried; a genuine request is run as the control.
func E7HandshakeSecurity() Result {
	res := Result{ID: "E7", Title: "§II-E/§III-B three-way handshake vs forged filtering requests"}

	type vector struct {
		name string
		run  func() (filters uint64, invalid uint64, hsFailed uint64, legitBlocked bool)
	}

	// Common scene: legit host streams to the victim; a compromised
	// host tries to get that flow blocked.
	build := func() (*aitf.ManyToOneDeployment, *attack.Flood) {
		opt := aitf.DefaultOptions()
		opt.Detector = nil // the victim wants the legit flow
		dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{Options: opt, Attackers: 1, Legit: 1})
		fl := dep.Flood(dep.Legit[0], dep.Victim, 50_000)
		fl.Launch()
		return dep, fl
	}
	sumStats := func(dep *aitf.ManyToOneDeployment) (filters, invalid, hsFailed uint64, blocked bool) {
		for _, g := range append(append([]*aitf.Gateway{dep.VictimGW}, dep.AttackGWs...), dep.LegitGWs...) {
			st := g.Stats()
			filters += g.Filters().Stats().Installed
			invalid += st.ReqInvalid
			hsFailed += st.HandshakesFailed
			if st.FilterDrops > 0 {
				blocked = true
			}
		}
		return
	}

	vectors := []vector{
		{"forged request, no evidence", func() (uint64, uint64, uint64, bool) {
			dep, _ := build()
			f := &attack.Forger{
				Node:     dep.Attackers[0],
				TargetGW: dep.LegitGWs[0].Node().Addr(),
				Flow:     aitf.PairLabel(dep.Legit[0].Node().Addr(), dep.Victim.Node().Addr()),
				Victim:   dep.Victim.Node().Addr(),
			}
			f.FireAt(time.Second)
			dep.Run(8 * time.Second)
			return sumStats(dep)
		}},
		{"forged request, fabricated route-record nonce", func() (uint64, uint64, uint64, bool) {
			dep, _ := build()
			f := &attack.Forger{
				Node:     dep.Attackers[0],
				TargetGW: dep.LegitGWs[0].Node().Addr(),
				Flow:     aitf.PairLabel(dep.Legit[0].Node().Addr(), dep.Victim.Node().Addr()),
				Victim:   dep.Victim.Node().Addr(),
				Evidence: []packet.RREntry{{Router: dep.LegitGWs[0].Node().Addr(), Nonce: 0xbadbadbad}},
			}
			f.FireAt(time.Second)
			dep.Run(8 * time.Second)
			return sumStats(dep)
		}},
		{"forged victim-gateway request via wrong interface", func() (uint64, uint64, uint64, bool) {
			dep, _ := build()
			eng := dep.Engine
			eng.ScheduleAt(time.Second, func() {
				req := &packet.FilterReq{
					Stage:    packet.StageToVictimGW,
					Flow:     aitf.PairLabel(dep.Legit[0].Node().Addr(), dep.Victim.Node().Addr()),
					Duration: time.Minute,
					Round:    1,
					Victim:   dep.Victim.Node().Addr(),
					Evidence: []packet.RREntry{{Router: dep.VictimGW.Node().Addr(), Nonce: 7}},
				}
				// Spoof the victim as the source; the request still
				// arrives through the core, not the victim's port.
				pkt := packet.NewControl(dep.Victim.Node().Addr(), dep.VictimGW.Node().Addr(), req)
				dep.Attackers[0].Node().Originate(pkt)
			})
			dep.Run(8 * time.Second)
			return sumStats(dep)
		}},
	}

	tbl := NewTable("attack vectors against a legitimate 50 KB/s flow",
		"vector", "filters created", "requests rejected", "handshakes failed", "legit flow blocked")
	for _, v := range vectors {
		filters, invalid, hsFailed, blocked := v.run()
		tbl.AddRow(v.name, filters, invalid+hsFailed, hsFailed, blocked)
	}

	// Control: the genuine victim of a real flood gets its request
	// through, proving the handshake admits what it should.
	ctrl := func() (uint64, bool) {
		opt := aitf.DefaultOptions()
		dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{Options: opt, Attackers: 1, Legit: 0})
		dep.Flood(dep.Attackers[0], dep.Victim, attackBps).Launch()
		dep.Run(8 * time.Second)
		return dep.AttackGWs[0].Filters().Stats().Installed, dep.AttackGWs[0].Stats().HandshakesOK > 0
	}
	filters, ok := ctrl()
	tbl.AddRow("control: genuine victim under real flood", filters, 0, 0, ok)
	tbl.AddNote("the handshake only succeeds when the named victim itself confirms it wants the flow gone")
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Shape check: zero forged vectors produce a filter; the genuine request does (paper: AITF cannot be abused unless the forger already controls the flow's path).")
	return res
}
