package attack

import (
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/core"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// harness builds a two-host line (src — router — dst) with core.Hosts
// attached, returning the sender host and a received-bytes counter.
func harness(t *testing.T) (*sim.Engine, *core.Host, *core.Host, *netsim.Network) {
	t.Helper()
	topo := topology.New()
	a := topo.AddNode("src", flow.MakeAddr(10, 0, 0, 1), topology.KindHost, 1)
	r := topo.AddNode("r", flow.MakeAddr(10, 0, 0, 2), topology.KindInternalRouter, 0)
	b := topo.AddNode("dst", flow.MakeAddr(10, 0, 0, 3), topology.KindHost, 2)
	topo.AddLink(a, r, time.Millisecond, 0, 0)
	topo.AddLink(r, b, time.Millisecond, 0, 0)
	eng := sim.NewEngine(1)
	net := netsim.MustBuild(eng, topo)

	src := core.NewHost(core.HostConfig{Gateway: flow.MakeAddr(10, 0, 0, 2),
		Timers: contract.DefaultTimers(), Contract: contract.DefaultEndHost(), Compliant: true})
	src.Attach(net.Node(a), nil)
	dst := core.NewHost(core.HostConfig{Gateway: flow.MakeAddr(10, 0, 0, 2),
		Timers: contract.DefaultTimers(), Contract: contract.DefaultEndHost(), Compliant: true})
	dst.Attach(net.Node(b), nil)
	return eng, src, dst, net
}

func TestFloodRate(t *testing.T) {
	eng, src, dst, _ := harness(t)
	fl := &Flood{From: src, Dst: dst.Node().Addr(), Rate: 100_000, PacketSize: 1000}
	fl.Launch()
	eng.RunUntil(10 * time.Second)

	// 100 KB/s for 10 s = 1 MB ± one packet.
	got := dst.Meter.Bytes
	if got < 990_000 || got > 1_010_000 {
		t.Fatalf("delivered %d bytes, want ≈1MB", got)
	}
	if fl.Sent == 0 || fl.Suppressed != 0 {
		t.Fatalf("Sent=%d Suppressed=%d", fl.Sent, fl.Suppressed)
	}
}

func TestFloodInterval(t *testing.T) {
	fl := &Flood{Rate: 1000, PacketSize: 100}
	if fl.Interval() != 100*time.Millisecond {
		t.Fatalf("Interval = %v", fl.Interval())
	}
	if (&Flood{Rate: 0, PacketSize: 100}).Interval() != 0 {
		t.Fatal("zero rate must yield zero interval")
	}
}

func TestFloodOnOffDutyCycle(t *testing.T) {
	eng, src, dst, _ := harness(t)
	fl := &Flood{From: src, Dst: dst.Node().Addr(), Rate: 100_000, PacketSize: 1000,
		On: 250 * time.Millisecond, Off: 750 * time.Millisecond}
	fl.Launch()
	eng.RunUntil(10 * time.Second)

	// 25% duty cycle: ≈250 KB over 10 s.
	got := float64(dst.Meter.Bytes)
	if got < 200_000 || got > 300_000 {
		t.Fatalf("delivered %v bytes, want ≈250KB (25%% duty)", got)
	}
	// Activity concentrated at window starts: the meter's per-second
	// buckets must all be populated (one burst per second).
	if dst.Meter.ActiveWindows() < 9 {
		t.Fatalf("bursts hit only %d windows", dst.Meter.ActiveWindows())
	}
}

func TestFloodStartStop(t *testing.T) {
	eng, src, dst, _ := harness(t)
	fl := &Flood{From: src, Dst: dst.Node().Addr(), Rate: 100_000, PacketSize: 1000,
		Start: 2 * time.Second, Stop: 4 * time.Second}
	fl.Launch()
	eng.RunUntil(2 * time.Second)
	if !dst.Meter.Idle() {
		t.Fatalf("%d packets arrived by Start", dst.Meter.Packets)
	}
	eng.RunUntil(10 * time.Second)

	if dst.Meter.Last() > 4*time.Second+10*time.Millisecond {
		t.Fatalf("last packet at %v, after Stop", dst.Meter.Last())
	}
}

func TestFloodSpoofing(t *testing.T) {
	eng, src, dst, _ := harness(t)
	fl := &Flood{From: src, Dst: dst.Node().Addr(), Rate: 100_000, PacketSize: 1000,
		SpoofSrc: flow.MakeAddr(99, 0, 0, 1), SpoofPerPacket: 16}
	fl.Launch()
	eng.RunUntil(2 * time.Second)

	if len(dst.PerSource) < 8 {
		t.Fatalf("spoofing produced only %d distinct sources", len(dst.PerSource))
	}
	for src := range dst.PerSource {
		if uint32(src) < uint32(flow.MakeAddr(99, 0, 0, 1)) ||
			uint32(src) >= uint32(flow.MakeAddr(99, 0, 0, 1))+16 {
			t.Fatalf("spoofed source %v outside range", src)
		}
	}
}

func TestArmyStagger(t *testing.T) {
	eng := sim.NewEngine(1)
	topo, ids := topology.ManyToOne(4, 0, topology.Params{
		AccessDelay: time.Millisecond, BackboneDelay: time.Millisecond})
	net := netsim.MustBuild(eng, topo)
	var zombies []*core.Host
	for _, id := range ids.Attackers {
		h := core.NewHost(core.HostConfig{Gateway: flow.MakeAddr(1, 1, 1, 1),
			Timers: contract.DefaultTimers(), Contract: contract.DefaultEndHost()})
		h.Attach(net.Node(id), nil)
		zombies = append(zombies, h)
	}
	victim := core.NewHost(core.HostConfig{Gateway: flow.MakeAddr(1, 1, 1, 1),
		Timers: contract.DefaultTimers(), Contract: contract.DefaultEndHost()})
	victim.Attach(net.Node(ids.Victim), nil)

	army := &Army{Zombies: zombies, Dst: victim.Node().Addr(),
		RatePerZombie: 50_000, PacketSize: 500, Stagger: 4 * time.Second}
	army.Launch()
	eng.RunUntil(8 * time.Second)

	if len(army.Floods) != 4 {
		t.Fatalf("army launched %d floods", len(army.Floods))
	}
	var sent uint64
	for _, f := range army.Floods {
		sent += f.Sent
	}
	if sent == 0 {
		t.Fatal("army sent nothing")
	}
	// Staggered starts: zombie i starts at i*1s.
	for i, f := range army.Floods {
		want := time.Duration(i) * time.Second
		if f.Start != want {
			t.Fatalf("flood %d starts at %v, want %v", i, f.Start, want)
		}
	}
	if len(victim.PerSource) != 4 {
		t.Fatalf("victim heard %d zombies", len(victim.PerSource))
	}
}

func TestRateDetectorFlagsFastFlow(t *testing.T) {
	d := NewRateDetector(10_000, 500*time.Millisecond)
	src := flow.MakeAddr(9, 9, 9, 9)
	dst := flow.MakeAddr(1, 1, 1, 1)
	var flagged bool
	// 100 KB/s: 10 packets of 1000B within 100ms exceed 5000B/window.
	for i := 0; i < 20; i++ {
		p := packet.NewData(src, dst, flow.ProtoUDP, 1, 2, 1000)
		if label, bad := d.Observe(time.Duration(i)*10*time.Millisecond, p); bad {
			flagged = true
			if label != flow.PairLabel(src, dst) {
				t.Fatalf("label = %v", label)
			}
			break
		}
	}
	if !flagged {
		t.Fatal("fast flow never flagged")
	}
}

func TestRateDetectorIgnoresSlowFlow(t *testing.T) {
	d := NewRateDetector(10_000, 500*time.Millisecond)
	src := flow.MakeAddr(9, 9, 9, 9)
	dst := flow.MakeAddr(1, 1, 1, 1)
	// 2 KB/s: one 1000B packet every 500ms.
	for i := 0; i < 20; i++ {
		p := packet.NewData(src, dst, flow.ProtoUDP, 1, 2, 1000)
		if _, bad := d.Observe(time.Duration(i)*500*time.Millisecond, p); bad {
			t.Fatal("slow flow flagged")
		}
	}
}

func TestRateDetectorFlagsOncePerEpisode(t *testing.T) {
	d := NewRateDetector(1000, 100*time.Millisecond)
	src := flow.MakeAddr(9, 9, 9, 9)
	dst := flow.MakeAddr(1, 1, 1, 1)
	flags := 0
	for i := 0; i < 50; i++ {
		p := packet.NewData(src, dst, flow.ProtoUDP, 1, 2, 1000)
		if _, bad := d.Observe(time.Duration(i)*10*time.Millisecond, p); bad {
			flags++
		}
	}
	if flags != 1 {
		t.Fatalf("continuous flow flagged %d times, want 1", flags)
	}
}

func TestDelayDetectorTiming(t *testing.T) {
	d := NewDelayDetector(100 * time.Millisecond)
	src := flow.MakeAddr(9, 9, 9, 9)
	dst := flow.MakeAddr(1, 1, 1, 1)
	p := packet.NewData(src, dst, flow.ProtoUDP, 1, 2, 1000)
	if _, bad := d.Observe(0, p); bad {
		t.Fatal("flagged at t=0")
	}
	if _, bad := d.Observe(50*time.Millisecond, p); bad {
		t.Fatal("flagged before Td")
	}
	label, bad := d.Observe(100*time.Millisecond, p)
	if !bad || label != flow.PairLabel(src, dst) {
		t.Fatalf("not flagged at Td: %v %v", label, bad)
	}
	// One-shot until quiet reset.
	if _, bad := d.Observe(200*time.Millisecond, p); bad {
		t.Fatal("re-flagged without quiet period")
	}
}

// TestDelayDetectorRearmsAfterSilence: a source that goes quiet for
// the 2 s reset is flagged again Td after it resumes.
func TestDelayDetectorRearmsAfterSilence(t *testing.T) {
	d := NewDelayDetector(50 * time.Millisecond)
	src := flow.MakeAddr(9, 9, 9, 9)
	p := packet.NewData(src, flow.MakeAddr(1, 1, 1, 1), flow.ProtoUDP, 1, 2, 1000)
	d.Observe(0, p)
	d.Observe(50*time.Millisecond, p) // flagged here
	// Resumes after 2 s of silence: flag again Td after resume.
	if _, bad := d.Observe(2100*time.Millisecond, p); bad {
		t.Fatal("flagged immediately on resume")
	}
	if _, bad := d.Observe(2150*time.Millisecond, p); !bad {
		t.Fatal("not re-flagged Td after resume")
	}
}

func TestRequestFloodSchedulesCount(t *testing.T) {
	eng, src, dst, net := harness(t)
	rf := &RequestFlood{
		From:    src,
		Gateway: dst.Node().Addr(), // any reachable node will do
		Rate:    100,
		Count:   50,
		Victim:  src.Node().Addr(),
	}
	rf.Launch()
	eng.RunUntil(2 * time.Second)
	if rf.Sent != 50 {
		t.Fatalf("Sent = %d, want 50", rf.Sent)
	}
	_ = net
}
