package detect

import (
	"math/rand"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

// workloadEngine builds an engine sized for benchmarking: the given
// sketch geometry and heavy-hitter budget, a 50 kB/s threshold, and a
// fixed seed so every measurement run sees identical hash layouts.
func workloadEngine(width, depth, topk int) *Engine {
	return New(Config{
		Width:        width,
		Depth:        depth,
		TopK:         topk,
		ThresholdBps: 50_000,
		Seed:         42,
	})
}

// workloadBatch builds one classification batch of the detection
// benchmark's traffic model: attackers hot sources flooding a single
// victim, interleaved with light background senders, all at 1 kB
// payloads. Reusing the same batch across iterations measures the
// steady-state observation path, as the dataplane workload does for
// classification.
func workloadBatch(rng *rand.Rand, attackers, batchSize int) []*packet.Packet {
	victim := flow.MakeAddr(10, 0, 0, 1)
	out := make([]*packet.Packet, batchSize)
	for i := range out {
		var src flow.Addr
		if attackers > 0 && i%2 == 0 {
			src = flow.MakeAddr(240, 1, byte(rng.Intn(attackers)>>8), byte(rng.Intn(attackers)))
		} else {
			src = flow.MakeAddr(10, 1, byte(rng.Intn(64)), byte(1+rng.Intn(250)))
		}
		out[i] = packet.NewData(src, victim, flow.ProtoUDP, uint16(1024+i), 80, 1000)
	}
	return out
}
