package experiments

import (
	"fmt"
	"time"

	"aitf"
	"aitf/internal/core"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/pushback"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// reliefSecond returns the first whole second after which the victim's
// received rate stays below frac of offered, or -1 if never.
func reliefSecond(buckets []core.Bucket, horizon time.Duration, offeredBps float64, frac float64) int {
	perSecond := make(map[int64]uint64, len(buckets))
	for _, b := range buckets {
		perSecond[b.Index] = b.Bytes
	}
	limit := uint64(offeredBps * frac)
	secs := int64(horizon / time.Second)
	for s := int64(0); s < secs; s++ {
		calm := true
		for t := s; t < secs; t++ {
			if perSecond[t] > limit {
				calm = false
				break
			}
		}
		if calm {
			return int(s)
		}
	}
	return -1
}

// pbVictim meters a pushback run's victim.
type pbVictim struct {
	meter *core.Meter
}

func (v *pbVictim) Receive(n *netsim.Node, p *packet.Packet, _ *netsim.Iface) {
	if p.Dst == n.Addr() && !p.IsControl() {
		v.meter.Add(n.Engine().Now(), int(p.PayloadLen))
	}
}

// runAITFChain returns (relief second, state-holding nodes, control
// messages, leaked KB) for an AITF chain of the given depth.
func runAITFChain(depth int, horizon time.Duration) (int, int, uint64, float64) {
	opt := aitf.DefaultOptions()
	// Deeper chains stretch the handshake; keep Ttmp comfortably above
	// it, as the paper prescribes (§IV-B).
	opt.Timers.Ttmp = 600*time.Millisecond + time.Duration(depth)*200*time.Millisecond
	dep := aitf.DeployChain(aitf.ChainOptions{Options: opt, Depth: depth})
	fl := dep.Flood(dep.Attacker, dep.Victim, 4*attackBps)
	fl.Launch()
	dep.Run(horizon)

	state := 0
	var msgs uint64
	for _, g := range append(append([]*aitf.Gateway{}, dep.VictimGWs...), dep.AttackGWs...) {
		if g.Filters().Stats().Installed > 0 {
			state++
		}
		msgs += g.Stats().MsgProcessed
	}
	relief := reliefSecond(dep.Victim.Meter.Buckets(), horizon, 4*attackBps, 0.1)
	return relief, state, msgs, float64(dep.Victim.Meter.Bytes) / 1e3
}

// runPushbackChain runs the [MBF+01] baseline on the same chain.
func runPushbackChain(depth int, horizon time.Duration) (int, int, uint64, float64) {
	eng := sim.NewEngine(1)
	topo, ids := topology.Chain(depth, topology.DefaultParams())
	net := netsim.MustBuild(eng, topo)
	cfg := pushback.DefaultConfig()
	var routers []*pushback.Router
	for _, id := range append(append([]topology.NodeID{}, ids.VictimGW...), ids.AttackGW...) {
		r := pushback.NewRouter(cfg)
		r.Attach(net.Node(id))
		routers = append(routers, r)
	}
	v := &pbVictim{meter: core.NewMeter(time.Second)}
	net.Node(ids.Victim).SetHandler(v)

	from := net.Node(ids.Attacker)
	to := net.Node(ids.Victim).Addr()
	interval := sim.Time(1000 / (4 * attackBps) * 1e9)
	var tick func()
	tick = func() {
		if eng.Now() >= sim.Time(horizon) {
			return
		}
		from.Originate(packet.NewData(from.Addr(), to, flow.ProtoUDP, 40, 80, 1000))
		eng.Schedule(interval, tick)
	}
	eng.ScheduleAt(0, tick)
	eng.RunUntil(sim.Time(horizon))

	state := 0
	var msgs uint64
	for _, r := range routers {
		st := r.Stats()
		if st.LimitsInstalled > 0 {
			state++
		}
		msgs += st.RequestsSent + st.RequestsRecv
	}
	relief := reliefSecond(v.meter.Buckets(), horizon, 4*attackBps, 0.1)
	return relief, state, msgs, float64(v.meter.Bytes) / 1e3
}

// E8AITFvsPushback regenerates the §V comparison: AITF touches four
// nodes per round and parks the filter at the attacker's edge;
// pushback recruits routers hop by hop toward the core, reacts on a
// multi-second congestion signal, and rate-limits instead of blocking.
func E8AITFvsPushback() Result {
	res := Result{ID: "E8", Title: "§V AITF vs hop-by-hop pushback [MBF+01]"}
	horizon := 30 * time.Second

	tbl := NewTable("40 Mbit/s flood into a 10 Mbit/s tail circuit, depth-d chain, 30 s horizon",
		"depth", "system", "relief (s)", "routers holding state", "control msgs", "victim leak (KB)")
	for _, depth := range []int{2, 3, 5} {
		ar, as, am, al := runAITFChain(depth, horizon)
		pr, ps, pm, pl := runPushbackChain(depth, horizon)
		reliefStr := func(r int) string {
			if r < 0 {
				return "never"
			}
			return fmt.Sprintf("%d", r)
		}
		tbl.AddRow(depth, "AITF", reliefStr(ar), as, am, al)
		tbl.AddRow(depth, "pushback", reliefStr(pr), ps, pm, pl)
	}
	tbl.AddNote("AITF state sits at the attacker-side edge regardless of depth; pushback recruits victim-side (core-ward) routers hop by hop")
	tbl.AddNote("pushback rate-limits the aggregate (it never reaches zero), so its relief criterion is met late or never")
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"Shape check: AITF's relief time is independent of chain depth (one round involves 4 nodes, §V); pushback's recruitment and relief degrade with depth.")
	return res
}
