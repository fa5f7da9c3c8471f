package detect

import (
	"strings"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/obs/obstest"
	"aitf/internal/sim"
)

func TestInstrumentExposesStats(t *testing.T) {
	e := New(Config{ThresholdBps: 1000, Window: 100 * time.Millisecond})
	r := obs.NewRegistry()
	e.Instrument(r)

	tup := flow.TupleOf(flow.MakeAddr(10, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2), flow.ProtoUDP, 1, 2)
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		e.ObserveTuple(now, tup, 1500)
		now += time.Millisecond
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if err := obstest.CheckExposition(out); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if !strings.Contains(out, "aitf_detect_packets_total 50") {
		t.Errorf("packets counter missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "aitf_detect_bytes_total 75000") {
		t.Errorf("bytes counter missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "aitf_detect_detections_total 1") {
		t.Errorf("detections counter missing (50 x 1500B in 50ms >> 1000Bps):\n%s", out)
	}
}
