package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/obs/obstest"
	"aitf/internal/wire"
)

func writeCfg(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

func TestStartGatewayFromJSON(t *testing.T) {
	path := writeCfg(t, "gw.json", `{
	  "role":   "gateway",
	  "addr":   "10.0.0.1",
	  "name":   "v_gw",
	  "listen": "127.0.0.1:0",
	  "book":   {"10.0.0.2": "127.0.0.1:7002"},
	  "routes": {"10.0.0.2": "10.0.0.2"},
	  "gateway": {
	    "clients": ["10.0.0.2"],
	    "secret":  "s",
	    "t_ms":    5000,
	    "ttmp_ms": 500,
	    "dataplane_shards": 4
	  }
	}`)
	node, err := start(path, discardLogger())
	if err != nil {
		t.Fatalf("start gateway: %v", err)
	}
	if addr := node.AdminAddr(); addr != "" {
		t.Fatalf("no admin configured but AdminAddr = %q", addr)
	}
	if err := node.Close(); err != nil {
		t.Fatalf("close gateway: %v", err)
	}
}

func TestStartHostFromJSON(t *testing.T) {
	path := writeCfg(t, "host.json", `{
	  "role":   "host",
	  "addr":   "10.0.0.2",
	  "name":   "victim",
	  "listen": "127.0.0.1:0",
	  "book":   {"10.0.0.1": "127.0.0.1:7001"},
	  "routes": {"10.0.0.1": "10.0.0.1"},
	  "host":   {"gateway": "10.0.0.1", "detect_bps": 20000, "compliant": true}
	}`)
	node, err := start(path, discardLogger())
	if err != nil {
		t.Fatalf("start host: %v", err)
	}
	if err := node.Close(); err != nil {
		t.Fatalf("close host: %v", err)
	}
}

func TestStartRejectsBadConfigs(t *testing.T) {
	cases := map[string]string{
		"not json":         `{`,
		"unknown role":     `{"role":"wizard","addr":"1.1.1.1"}`,
		"negative workers": `{"role":"gateway","addr":"1.1.1.1","gateway":{"workers":-3}}`,
		"fixed aggpfx":     `{"role":"gateway","addr":"1.1.1.1","gateway":{"aggregation_prefix_len":24}}`,
		"negative shards":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"dataplane_shards":-1}}`,
		"ttmp >= t":        `{"role":"gateway","addr":"1.1.1.1","gateway":{"t_ms":100,"ttmp_ms":200}}`,
		"one peer":         `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":1}}`,
		"fast merge":       `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":2,"cluster_merge_ms":50}}`,
	}
	for name, body := range cases {
		path := writeCfg(t, "bad.json", body)
		if _, err := start(path, discardLogger()); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name != "not json" && !errors.Is(err, wire.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

func TestStartMissingFile(t *testing.T) {
	if _, err := start(filepath.Join(t.TempDir(), "nope.json"), discardLogger()); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestStartBadAdminAddr(t *testing.T) {
	path := writeCfg(t, "gw.json", `{
	  "role": "gateway", "addr": "10.0.0.1", "name": "g",
	  "listen": "127.0.0.1:0", "admin": "256.0.0.1:bad",
	  "gateway": {"secret": "s"}
	}`)
	if _, err := start(path, discardLogger()); err == nil {
		t.Fatal("unbindable admin address accepted")
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// metricValue extracts a scalar sample from Prometheus text exposition.
func metricValue(t *testing.T, expo, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(expo)
	if m == nil {
		t.Fatalf("metric %s not found in exposition:\n%s", name, expo)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

// TestAdminEndpointLiveAttack boots a gateway (defending a legacy
// client with sketch detection) and an attacker host from temp JSON
// configs, floods the protected client through the gateway, and
// scrapes the gateway's admin endpoint while the attack runs: the
// exposition must parse, aitf_dataplane_classified_total must be
// present and monotone, and the attack must show up as detections and
// filter installs.
func TestAdminEndpointLiveAttack(t *testing.T) {
	// The attacker binds first so the gateway's book can point at it.
	attackerCfg := writeCfg(t, "attacker.json", `{
	  "role":   "host",
	  "addr":   "10.9.0.2",
	  "name":   "attacker",
	  "listen": "127.0.0.1:0",
	  "book":   {},
	  "routes": {"10.0.0.2": "10.0.0.1", "10.0.0.1": "10.0.0.1"},
	  "host":   {"gateway": "10.0.0.1", "compliant": true}
	}`)
	attacker, err := start(attackerCfg, discardLogger())
	if err != nil {
		t.Fatalf("start attacker: %v", err)
	}
	defer attacker.Close()
	attackerUDP := attacker.host.Node().UDPAddr().String()

	gwCfg := writeCfg(t, "gw.json", fmt.Sprintf(`{
	  "role":   "gateway",
	  "addr":   "10.0.0.1",
	  "name":   "gw",
	  "listen": "127.0.0.1:0",
	  "admin":  "127.0.0.1:0",
	  "book":   {"10.9.0.2": "%s"},
	  "routes": {"10.0.0.2": "10.9.0.2", "10.9.0.2": "10.9.0.2"},
	  "gateway": {
	    "secret":     "s",
	    "t_ms":       60000,
	    "ttmp_ms":    600,
	    "detect_bps": 1000,
	    "detect_for": ["10.0.0.2"],
	    "detect_window_ms": 50
	  }
	}`, attackerUDP))
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	gw, err := start(gwCfg, logger)
	if err != nil {
		t.Fatalf("start gateway: %v", err)
	}
	defer gw.Close()
	base := "http://" + gw.AdminAddr()
	if gw.AdminAddr() == "" {
		t.Fatal("gateway did not bind an admin listener")
	}

	// Point the attacker's book at the gateway's dynamic port.
	gwAddr := flow.MakeAddr(10, 0, 0, 1)
	attacker.host.Node().SetBook(wire.Book{gwAddr: gw.gw.Node().UDPAddr().String()})

	// Baseline scrape before any traffic.
	code, expo := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if err := obstest.CheckExposition(expo); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	classified0 := metricValue(t, expo, "aitf_dataplane_classified_total")

	// Flood the protected legacy client through the gateway: ~1500B
	// per ms is far above the 1000 B/s detection threshold.
	victim := flow.MakeAddr(10, 0, 0, 2)
	deadline := time.Now().Add(5 * time.Second)
	detected := false
	for time.Now().Before(deadline) {
		for i := 0; i < 20; i++ {
			attacker.host.SendData(victim, flow.ProtoUDP, 4000, 80, 1500)
		}
		time.Sleep(5 * time.Millisecond)
		_, expo = httpGet(t, base+"/metrics")
		if metricValue(t, expo, "aitf_gateway_detections_total") >= 1 {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatalf("gateway never detected the flood; last exposition:\n%s", expo)
	}
	if err := obstest.CheckExposition(expo); err != nil {
		t.Fatalf("mid-attack /metrics does not parse: %v", err)
	}
	classified1 := metricValue(t, expo, "aitf_dataplane_classified_total")
	if classified1 <= classified0 {
		t.Fatalf("classified_total not monotone under traffic: %v -> %v", classified0, classified1)
	}
	if installs := metricValue(t, expo, "aitf_dataplane_filters_installed_total"); installs < 1 {
		t.Fatalf("no filter installs after detection (installed_total = %v)", installs)
	}

	// /healthz reports occupancy and flips to 503 on drain.
	code, body := httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	for _, want := range []string{`"filters"`, `"filter_capacity"`, `"status": "ok"`} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(body) {
			t.Errorf("/healthz missing %s: %q", want, body)
		}
	}

	// pprof rides on the same listener.
	if code, body := httpGet(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}

	// /trace holds the protocol milestones of the round.
	if code, body := httpGet(t, base+"/trace"); code != http.StatusOK ||
		!regexp.MustCompile(`attack-detected`).MatchString(body) {
		t.Fatalf("/trace = %d, missing attack-detected: %q", code, body)
	}

	// Drain: health goes 503 before the node closes.
	gw.beginDrain()
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusServiceUnavailable ||
		!regexp.MustCompile(`"draining": true`).MatchString(body) {
		t.Fatalf("draining /healthz = %d %q", code, body)
	}
	gw.log.Info("shutting down", append([]any{"signal", "SIGTERM", "node", gw.name}, gw.finalSnapshot()...)...)
	if err := gw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	out := logBuf.String()
	for _, want := range []string{"shutting down", "signal=SIGTERM", "classified=", "detections="} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(out) {
			t.Errorf("shutdown log missing %q:\n%s", want, out)
		}
	}
}

// TestStartClusteredGateway boots a gateway running as a replica
// cluster from JSON and scrapes its admin endpoint: the aitf_cluster_*
// schema must be exposed and the exposition must stay parseable.
func TestStartClusteredGateway(t *testing.T) {
	path := writeCfg(t, "clu.json", `{
	  "role": "gateway", "addr": "10.0.0.1", "name": "clu_gw",
	  "listen": "127.0.0.1:0", "admin": "127.0.0.1:0",
	  "book": {}, "routes": {},
	  "gateway": {
	    "secret": "s",
	    "cluster_peers": 3,
	    "cluster_merge_ms": 250,
	    "cluster_replication": true,
	    "detect_bps": 1000,
	    "detect_for": ["10.0.0.2"]
	  }
	}`)
	d, err := start(path, discardLogger())
	if err != nil {
		t.Fatalf("start clustered gateway: %v", err)
	}
	defer d.Close()
	_, expo := httpGet(t, "http://"+d.AdminAddr()+"/metrics")
	if err := obstest.CheckExposition(expo); err != nil {
		t.Fatalf("clustered /metrics does not parse: %v", err)
	}
	for _, want := range []string{
		"aitf_cluster_log_length",
		"aitf_cluster_merge_rounds_total",
		"aitf_cluster_merge_bytes_total",
		"aitf_cluster_failovers_total",
		"aitf_cluster_catchup_ops_total",
		"aitf_cluster_catchup_ns_total",
		"aitf_cluster_detections_total",
		"aitf_cluster_merge_detections_total",
	} {
		if metricValue(t, expo, want) < 0 {
			t.Errorf("metric %s negative", want)
		}
	}
}

// TestHostFinalSnapshot covers the host leg of the shutdown line.
func TestHostFinalSnapshot(t *testing.T) {
	path := writeCfg(t, "host.json", `{
	  "role": "host", "addr": "10.0.0.2", "name": "h",
	  "listen": "127.0.0.1:0", "admin": "127.0.0.1:0",
	  "book": {}, "routes": {},
	  "host": {"gateway": "10.0.0.1", "compliant": true}
	}`)
	d, err := start(path, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	attrs := d.finalSnapshot()
	if len(attrs) == 0 || attrs[0] != "bytes_received" {
		t.Fatalf("host snapshot = %v", attrs)
	}
	if code, _ := httpGet(t, "http://"+d.AdminAddr()+"/metrics"); code != http.StatusOK {
		t.Fatalf("host /metrics status = %d", code)
	}
}

// restartRig writes a gateway config with a snapshot_path, returning
// the config's path and the snapshot's.
func restartRig(t *testing.T) (cfgPath, snapPath string) {
	t.Helper()
	snapPath = filepath.Join(t.TempDir(), "gw.snapshot.json")
	cfgBody := fmt.Sprintf(`{
	  "role": "gateway", "addr": "10.0.0.1", "name": "g",
	  "listen": "127.0.0.1:0", "book": {}, "routes": {},
	  "gateway": {"secret": "s", "snapshot_path": %q,
	              "ctrl_max_attempts": 3, "ctrl_rto_ms": 50}
	}`, snapPath)
	return writeCfg(t, "gw.json", cfgBody), snapPath
}

// TestDaemonRestartRestoresFilters drives the full snapshot-on-drain /
// restore-on-boot path through the daemon: a gateway with a
// snapshot_path is stopped mid-lifetime and booted again from the same
// config, and its filters come back with their deadlines intact.
func TestDaemonRestartRestoresFilters(t *testing.T) {
	path, _ := restartRig(t)

	d, err := start(path, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	label := flow.PairLabel(flow.MakeAddr(20, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2))
	dp := d.gw.DataPlane()
	if err := dp.Install(label, dp.Now(), dp.Now()+5*time.Second); err != nil {
		t.Fatal(err)
	}
	d.beginDrain()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := start(path, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	st := d2.gw.Stats()
	if st.SnapshotRestores != 1 || st.FiltersRestored != 1 {
		t.Fatalf("restart restored nothing: %+v", st)
	}
	if _, ok := d2.gw.DataPlane().Get(label, d2.gw.DataPlane().Now()); !ok {
		t.Fatal("filter missing after daemon restart")
	}
}

// TestDaemonBootsFreshOnV1Snapshot: a snapshot in the refused version 1
// format (written by an earlier build, kept under internal/wire/testdata)
// is logged with its version error, the daemon boots fresh, and its
// next drain writes the current version over it.
func TestDaemonBootsFreshOnV1Snapshot(t *testing.T) {
	path, snapPath := restartRig(t)
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "wire", "testdata", "v1.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	d, err := start(path, slog.New(slog.NewTextHandler(&logBuf, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if st := d.gw.Stats(); st.SnapshotRestores != 0 || st.HandshakesStarted != 0 || d.gw.Filters().Len() != 0 {
		t.Fatalf("v1 snapshot restored state: %+v, %d filters", st, d.gw.Filters().Len())
	}
	d.beginDrain()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("snapshot version 1, want 2")) {
		t.Fatalf("boot did not log the version error:\n%s", logBuf.String())
	}
	raw, err = os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var head struct{ Version int }
	if err := json.Unmarshal(raw, &head); err != nil || head.Version != 2 {
		t.Fatalf("drain wrote version %d (%v), want 2", head.Version, err)
	}
}
