package main

import (
	"fmt"
	"runtime"
	"time"

	"aitf"
	"aitf/internal/attack"
	"aitf/internal/scenario"
)

// sizes fixes the work of one trial; every trial of a workload does the
// same work. full is the benchmark of record; smoke (bench_test.go)
// keeps every code path under go test.
type sizes struct {
	minTrials int

	fwdClean, fwdAttack fwdSpec
	ringBursts          int // bursts in the datagram ring
	ringPasses          int // passes over the ring per fwd trial
	probeWindows        int // windows of probesPerWindow RTT probes per fwd trial

	rounds, warmRounds int

	zombies, legit int
	armyVirtual    time.Duration // simulated per sim_army trial

	scenarios, warmScenarios int

	stageBatches int // batches per layer stage in the traced run
}

var full = sizes{
	minTrials: 3,
	fwdClean:  fwdClean, fwdAttack: fwdAttack,
	ringBursts: 256, ringPasses: 8, probeWindows: 20,
	rounds: 20_000, warmRounds: 200,
	zombies: 500, legit: 4, armyVirtual: 10 * time.Second,
	scenarios: 300, warmScenarios: 25,
	stageBatches: 64,
}

type runConfig struct {
	seed    int64
	seconds float64 // measured time per run; trials repeat until it is used
	sz      sizes
	spans   *spans // non-nil in the traced run
}

// report is one run of one workload.
type report struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	Notes     []string         `json:"notes,omitempty"`
	WallS     float64          `json:"wall_s"`
}

// workload is one named set of inputs. run measures the end-to-end
// metrics untraced; trace measures the per-layer metrics.
type workload struct {
	Name, Loop, Why string
	run, trace      func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"fwd_clean", "closed, bursts of 32 then 1 probe in flight",
		"bare forwarding: 10k filters, none matching, so every datagram pays read, decode, classify miss, nonce, route record, resolve, encode, write",
		func(c runConfig, r *report) error { return runFwd(c.sz.fwdClean, c, r) },
		func(c runConfig, r *report) error { return traceFwd(c.sz.fwdClean, c, r) }},
	{"fwd_attack", "closed, bursts of 32 then 1 probe in flight",
		"same chain under attack: 64k filters (60k pairs + 4k /24 prefixes), 75% of datagrams filtered, detection observing every delivered one",
		func(c runConfig, r *report) error { return runFwd(c.sz.fwdAttack, c, r) },
		func(c runConfig, r *report) error { return traceFwd(c.sz.fwdAttack, c, r) }},
	{"filter_round", "closed, 16 rounds in flight",
		"the protocol round over four UDP nodes: dataplane writes (Install, LogShadow) and the control path under the gateway lock",
		runRound, traceRound},
	{"sim_army", "single-threaded batch job",
		"500 zombies against one victim on the virtual clock: sim heap, netsim delivery and core forwarding through the same dataplane code",
		runArmy, traceArmy},
	{"sim_scenarios", "single-threaded batch job",
		"generated scenarios built, run and invariant-checked: the property suite's cost and the only path into cluster, alloc, retransmission and crash/restore",
		runScenarios, traceScenarios},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// trials calls one until minTrials trials have run and cfg.seconds of
// measuring have been spent; one returns the time it spent measuring.
func trials(cfg runConfig, one func() (time.Duration, error)) error {
	var measured time.Duration
	for i := 0; i < cfg.sz.minTrials || measured.Seconds() < cfg.seconds; i++ {
		d, err := one()
		if err != nil {
			return err
		}
		measured += d
	}
	return nil
}

// measure is the untraced run: trials of one, reduced into the report.
func measure(cfg runConfig, rep *report, one func(ts *trialSet) (time.Duration, error)) error {
	ts := newTrialSet()
	err := trials(cfg, func() (time.Duration, error) { return one(ts) })
	ts.into(rep.Metrics)
	return err
}

// fwdTrial plays one trial of a forwarding workload: a fresh gateway,
// ring passes for throughput, then probes for latency. sp is non-nil
// when the trial is traced; inspect, when non-nil, sees the live rig
// before it is torn down.
func fwdTrial(cfg runConfig, traffic *fwdTraffic, lat *latencies, ts *trialSet, rep *report, sp *spans, inspect func(*fwdRig) error) (time.Duration, error) {
	heap0 := heapInuseMB()
	t0 := time.Now()
	rig, err := newFwdRig(traffic, cfg.seed)
	if err != nil {
		return 0, err
	}
	defer rig.close()
	rig.sp = sp
	if err := rig.warmUp(); err != nil {
		return 0, err
	}
	ts.add("setup_s", "s", time.Since(t0).Seconds(), 1)

	// The generator and the gateway's read loop hand datagrams back and
	// forth across two Ps. While one P is idle the runtime parks its
	// thread in the network poller, and the kernel wakes that thread
	// across CPUs for every datagram that lands on a socket, several µs
	// dearer on a virtual machine; while both are busy nothing is woken.
	// Which it is changes every few ms, and the share of each drifts over
	// minutes, so a mean or a median over seconds moves by half with the
	// host's mood. The cheap way is always there, so the run reports it:
	// the 1st percentile of the time per datagram over segments a few ms
	// long, and of the median over probe windows as long. The per-trial
	// values are plain means and medians.
	m0 := mallocs()
	t1 := time.Now()
	var total time.Duration
	for pass := 0; pass < cfg.sz.ringPasses; pass++ {
		d, err := rig.pass(traffic.ring, false, ts, "ops_per_s")
		if err != nil {
			return 0, err
		}
		total += d
	}
	n := cfg.sz.ringPasses * len(traffic.ring)
	ts.addThroughput(n, total)
	ts.add("wire.allocs_per_pkt", "count", float64(mallocs()-m0)/float64(n), n)
	var p50s, p99s []float64
	for w := 0; w < cfg.sz.probeWindows; w++ {
		lat.reset()
		if err := rig.probes(traffic, w*probesPerWindow, probesPerWindow, lat); err != nil {
			return 0, err
		}
		w50, w99, _ := lat.quantilesUs()
		p50s, p99s = append(p50s, w50), append(p99s, w99)
	}
	measured := time.Since(t1)
	ts.addFast("op_p50_us", p50s...)
	ts.addLatency(median(p50s), median(p99s), cfg.sz.probeWindows*probesPerWindow)
	heap := ts.addHeap()
	ts.add("dataplane.heap_bytes_per_filter", "B", (heap-heap0)*(1<<20)/float64(len(traffic.filters)), len(traffic.filters))
	ts.add("dataplane.install_ns", "ns", rig.installNs, len(traffic.filters))

	rep.Attempted += int(rig.sent)
	rep.Failed += int(rig.timedOut)
	if err := rig.check(); err != nil {
		return 0, err
	}
	if inspect != nil {
		err = inspect(rig)
	}
	return measured, err
}

func runFwd(spec fwdSpec, cfg runConfig, rep *report) error {
	traffic := newFwdTraffic(cfg.seed, spec, cfg.sz.ringBursts)
	lat := newLatencies(probesPerWindow)
	return measure(cfg, rep, func(ts *trialSet) (time.Duration, error) {
		return fwdTrial(cfg, traffic, lat, ts, rep, nil, nil)
	})
}

// roundTrial plays one filter_round trial: a fresh four-node rig, a
// warm-up, then the trial's rounds. tr is non-nil when the trial is
// traced; inspect, when non-nil, sees the rig after the rounds and
// before it is closed. Each trial attacks from its own address block,
// trial numbering them.
func roundTrial(cfg runConfig, trial int, lat *latencies, ts *trialSet, rep *report, tr *roundTrace, inspect func(*roundRig) error) (time.Duration, error) {
	sz := cfg.sz
	t0 := time.Now()
	r, err := newRoundRig(cfg.seed+int64(trial)*7919, sz.warmRounds+sz.rounds, tr.obs())
	if err != nil {
		return 0, err
	}
	defer r.close()
	if _, failed, err := r.run(0, sz.warmRounds, nil, nil); err != nil || failed > 0 {
		return 0, fmt.Errorf("round warm-up: %d failed, err %v", failed, err)
	}
	ts.add("setup_s", "s", time.Since(t0).Seconds(), 1)

	// Like the forwarding workloads (see fwdTrial), the round is reported
	// in its fast mode: segments of roundsPerSeg rounds, a few tens of ms.
	rt := tr.times(sz.warmRounds + sz.rounds)
	m0 := mallocs()
	t1 := time.Now()
	done, failed := 0, 0
	var p50s, p99s []float64
	for from := sz.warmRounds; from < sz.warmRounds+sz.rounds; from += roundsPerSeg {
		lat.reset()
		s0 := time.Now()
		d, f, err := r.run(from, from+roundsPerSeg, lat, rt)
		if err != nil {
			return 0, err
		}
		ts.addFast("ops_per_s", time.Since(s0).Seconds()/roundsPerSeg)
		done, failed = done+d, failed+f
		p50, p99, _ := lat.quantilesUs()
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	measured := time.Since(t1)
	ts.addThroughput(done, measured)
	ts.addFast("op_p50_us", p50s...)
	ts.addLatency(median(p50s), median(p99s), done)
	ts.add("wire.allocs_per_pkt", "count", float64(mallocs()-m0)/float64(done*sendsPerRound), done*sendsPerRound)
	ts.addHeap()
	rep.Attempted += done + failed
	rep.Failed += failed
	if err := r.check(sz.warmRounds+done, failed); err != nil {
		return 0, err
	}
	if inspect != nil {
		err = inspect(r)
	}
	return measured, err
}

func runRound(cfg runConfig, rep *report) error {
	lat := newLatencies(roundsPerSeg)
	trial := 0
	return measure(cfg, rep, func(ts *trialSet) (time.Duration, error) {
		trial++
		return roundTrial(cfg, trial, lat, ts, rep, nil, nil)
	})
}

// army is one sim_army deployment, launched and ready to run.
type army struct{ dep *aitf.ManyToOneDeployment }

// armySlice is the virtual time one timed step of sim_army advances;
// its host time is the workload's op latency. armySeg of virtual time
// is one throughput segment of a trial.
const (
	armySlice = 10 * time.Millisecond
	armySeg   = 200 * time.Millisecond
)

// newArmy deploys the many-to-one topology and launches the zombie army
// and the legit clients. The seed drives only the simulator's own random
// source, which this deployment barely draws on: perturbing the rate or
// the ramp-up by a few percent congests the tail circuit enough that no
// handshake completes and no filter reaches an attacker's gateway, which
// would leave half the protocol out of the workload.
func newArmy(cfg runConfig) *army {
	opt := aitf.DefaultOptions()
	opt.Seed = cfg.seed
	dep := aitf.DeployManyToOne(aitf.ManyToOneOptions{
		Options: opt, Attackers: cfg.sz.zombies, Legit: cfg.sz.legit, AttackersCompliant: true})
	zombies := &attack.Army{
		Zombies: dep.Attackers, Dst: dep.Victim.Node().Addr(),
		RatePerZombie: 200_000, PacketSize: 1000,
		Stagger: 2 * time.Second,
	}
	zombies.Launch()
	for _, l := range dep.Legit {
		dep.Flood(l, dep.Victim, 15_000).Launch()
	}
	return &army{dep: dep}
}

// run advances the deployment to the virtual time until, slice by
// slice, recording host time per slice.
func (a *army) run(until time.Duration, lat *latencies, sp *spans) {
	for a.dep.Now() < until {
		before := a.dep.Engine.Processed
		id := sp.begin("sim.slice", -1)
		t0 := time.Now()
		a.dep.Run(armySlice)
		lat.add(time.Since(t0))
		sp.end(id, int(a.dep.Engine.Processed-before))
	}
}

// armyOutcome is the simulated result of a trial: identical across
// trials of one seed, and across commits for a change that only claims
// speed.
type armyOutcome struct{ events, victimBytes, filters uint64 }

func (a *army) outcome() armyOutcome {
	o := armyOutcome{events: a.dep.Engine.Processed, victimBytes: a.dep.Victim.Stats().BytesReceived}
	for _, g := range a.dep.AttackGWs {
		o.filters += g.Filters().Stats().Installed
	}
	return o
}

// armyTrial plays one sim_army trial, segment by segment; first holds trial 0's outcome, which every later trial must reproduce.
func armyTrial(cfg runConfig, lat *latencies, ts *trialSet, rep *report, sp *spans, first *armyOutcome) (time.Duration, error) {
	t0 := time.Now()
	a := newArmy(cfg)
	ts.add("setup_s", "s", time.Since(t0).Seconds(), 1)

	lat.reset()
	t1 := time.Now()
	var segs []time.Duration
	for at := armySeg; at <= cfg.sz.armyVirtual; at += armySeg {
		s0 := time.Now()
		a.run(at, lat, sp)
		segs = append(segs, time.Since(s0))
	}
	measured := time.Since(t1)
	o := a.outcome()
	ts.addRepeat(segs, int(o.events))
	p50, p99, n := lat.quantilesUs()
	ts.addFast("op_p50_us", p50) // the lowest trial median
	ts.addLatency(p50, p99, n)
	ts.addHeap()
	runtime.KeepAlive(a)
	rep.Attempted += int(o.events)
	if *first == (armyOutcome{}) {
		*first = o
	} else if o != *first {
		return 0, fmt.Errorf("sim_army: a trial simulated %+v, trial 0 %+v: not deterministic", o, *first)
	}
	return measured, nil
}

func runArmy(cfg runConfig, rep *report) error {
	lat := newLatencies(int(cfg.sz.armyVirtual/armySlice) + 1)
	var first armyOutcome
	return measure(cfg, rep, func(ts *trialSet) (time.Duration, error) {
		return armyTrial(cfg, lat, ts, rep, nil, &first)
	})
}

// scenariosPerSeg scenarios are timed together as one segment of a
// sim_scenarios trial; sizes.scenarios is a multiple of it.
const scenariosPerSeg = 25

// scenarioPass is the outcome of running a list of scenarios once.
type scenarioPass struct {
	fingerprint uint64
	logEvents   int
	violating   []int64 // seeds with an invariant violation
}

// run runs the scenarios of seeds [from, to), timing each.
func (p *scenarioPass) run(from, to int64, lat *latencies, sp *spans) {
	for s := from; s < to; s++ {
		id := sp.begin("scenario.run", -1)
		t0 := time.Now()
		res := scenario.Run(scenario.GenSpec(s))
		if lat != nil {
			lat.add(time.Since(t0))
		}
		sp.end(id, res.Events)
		p.fingerprint ^= res.Fingerprint
		p.logEvents += res.Events
		if res.Failed() {
			p.violating = append(p.violating, s)
		}
	}
}

// scenarioTrial plays one sim_scenarios trial over the seeds after
// cfg.seed; first holds trial 0's outcome, which every later trial must
// reproduce.
func scenarioTrial(cfg runConfig, lat *latencies, ts *trialSet, rep *report, sp *spans, first *scenarioPass) (time.Duration, error) {
	sz := cfg.sz
	// Set-up is the warm-up pass: the first scenarios run once so the
	// packet pool and the heap reach their working size.
	t0 := time.Now()
	new(scenarioPass).run(cfg.seed+1, cfg.seed+1+int64(sz.warmScenarios), nil, nil)
	ts.add("setup_s", "s", time.Since(t0).Seconds(), 1)

	lat.reset()
	var p scenarioPass
	b0 := allocatedMB()
	t1 := time.Now()
	segs := make([]time.Duration, sz.scenarios/scenariosPerSeg)
	for i := range segs {
		from := cfg.seed + 1 + int64(i*scenariosPerSeg)
		s0 := time.Now()
		p.run(from, from+scenariosPerSeg, lat, sp)
		segs[i] = time.Since(s0)
	}
	measured := time.Since(t1)
	ts.addRepeat(segs, sz.scenarios)
	p50, p99, n := lat.quantilesUs()
	ts.addFast("op_p50_us", p50) // the lowest trial median
	ts.addLatency(p50, p99, n)
	// Nothing stays live between scenarios, so the memory a scenario
	// costs is what it allocates.
	ts.add("mem_mb", "MB", (allocatedMB()-b0)/float64(sz.scenarios), sz.scenarios)
	rep.Attempted += sz.scenarios
	if first.logEvents == 0 {
		*first = p
		if len(p.violating) > 0 {
			// A violation is a protocol bug the property suite tracks, not
			// a failed benchmark operation: the scenario still ran to
			// completion and reproduced its fingerprint.
			rep.Notes = append(rep.Notes, fmt.Sprintf("scenario seeds with an invariant violation: %v", p.violating))
		}
	} else if p.fingerprint != first.fingerprint || p.logEvents != first.logEvents || len(p.violating) != len(first.violating) {
		return 0, fmt.Errorf("sim_scenarios: a trial differs from trial 0 (fingerprint %08x vs %08x): not deterministic",
			uint32(p.fingerprint), uint32(first.fingerprint))
	}
	return measured, nil
}

func runScenarios(cfg runConfig, rep *report) error {
	lat := newLatencies(cfg.sz.scenarios)
	var first scenarioPass
	return measure(cfg, rep, func(ts *trialSet) (time.Duration, error) {
		return scenarioTrial(cfg, lat, ts, rep, nil, &first)
	})
}
