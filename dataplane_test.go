package aitf

import (
	"testing"
	"time"
)

// runFigure1 replays the cooperative Figure-1 round with the given
// data-plane shard count and returns the deployment for inspection.
func runFigure1(t *testing.T, shards int) *Figure1Deployment {
	t.Helper()
	opt := DefaultOptions()
	opt.DataplaneShards = shards
	dep := DeployFigure1(opt)
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.Launch()
	dep.Run(5 * time.Second)
	return dep
}

// TestDataplaneModesAgree runs the same Figure-1 scenario through a
// single-shard and a multi-shard engine and requires identical protocol
// outcomes: sharding is a performance layer, not a semantics change.
func TestDataplaneModesAgree(t *testing.T) {
	base := runFigure1(t, 1)
	t.Run("sharded", func(t *testing.T) {
		dep := runFigure1(t, 8)
		for _, kind := range []EventKind{
			EvAttackDetected, EvTempFilterInstalled, EvHandshakeOK,
			EvFilterInstalled, EvEscalated, EvTakeoverOK, EvDisconnected,
		} {
			if got, want := dep.Log.Count(kind), base.Log.Count(kind); got != want {
				t.Errorf("%v count = %d, want %d", kind, got, want)
			}
		}
		if got, want := dep.Victim.Meter.Bytes, base.Victim.Meter.Bytes; got != want {
			t.Errorf("victim bytes = %d, want %d", got, want)
		}
		gotDrops := dep.VictimGWs[0].Stats().FilterDrops + dep.AttackGWs[0].Stats().FilterDrops
		wantDrops := base.VictimGWs[0].Stats().FilterDrops + base.AttackGWs[0].Stats().FilterDrops
		if gotDrops != wantDrops {
			t.Errorf("filter drops = %d, want %d", gotDrops, wantDrops)
		}
	})
}

// TestDataplaneBatchShadowMode checks the gateway-auto reappearance
// mode past a non-cooperating gateway: an on-off flood's reappearances
// hit the shadow cache and the gateway re-blocks them itself.
func TestDataplaneBatchShadowMode(t *testing.T) {
	opt := DefaultOptions()
	opt.ShadowMode = GatewayAuto
	dep := DeployChain(ChainOptions{
		Options:        opt,
		Depth:          3,
		NonCooperative: map[int]bool{0: true},
	})
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.On = 300 * time.Millisecond
	fl.Off = time.Second
	fl.Launch()
	dep.Run(10 * time.Second)
	if dep.Log.Count(EvShadowHit) == 0 {
		t.Fatal("no shadow reappearances caught")
	}
	if dep.Log.Count(EvTempFilterInstalled) == 0 {
		t.Fatal("no temporary filters installed")
	}
}
