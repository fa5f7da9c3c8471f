package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"aitf/internal/obs/obstest"
)

func bootAdmin(t *testing.T, health func() Health) (*AdminServer, string) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("admin_test_total", "scrape me").Add(5)
	ring := NewRing(16)
	ring.Record(Record{Node: "gw", Kind: EvFilterInstalled, At: time.Second})
	a := NewAdminServer(reg, ring, health)
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, "http://" + a.Addr()
}

func get(t *testing.T, url string) (int, string) {
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

func TestAdminEndpoints(t *testing.T) {
	_, base := bootAdmin(t, nil)

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "admin_test_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if err := obstest.CheckExposition(body); err != nil {
		t.Errorf("/metrics does not parse: %v", err)
	}

	code, body = get(t, base+"/metrics.json")
	if code != http.StatusOK || !strings.Contains(body, `"admin_test_total"`) {
		t.Errorf("/metrics.json = %d %q", code, body)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.Status != "ok" {
		t.Errorf("/healthz = %q (err %v)", body, err)
	}

	code, body = get(t, base+"/trace")
	if code != http.StatusOK || !strings.Contains(body, "filter-installed") {
		t.Errorf("/trace = %d %q", code, body)
	}

	code, body = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

func TestAdminHealthzDraining(t *testing.T) {
	draining := false
	_, base := bootAdmin(t, func() Health {
		h := Health{Status: "ok", Details: map[string]any{"filters": 3}}
		if draining {
			h.Status, h.Draining = "draining", true
		}
		return h
	})
	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"filters": 3`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	draining = true
	if code, body := get(t, base+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, `"draining": true`) {
		t.Fatalf("draining /healthz = %d %q", code, body)
	}
}
