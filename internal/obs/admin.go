package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Health is what /healthz reports: overall status plus free-form
// details (filter-table occupancy, drain state, ...).
type Health struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Draining is true once graceful shutdown has begun; /healthz then
	// answers 503 so load balancers stop routing to this instance.
	Draining bool `json:"draining"`
	// Details carries deployment-specific fields such as
	// filter-table occupancy.
	Details map[string]any `json:"details,omitempty"`
}

// AdminServer serves the observability plane over HTTP: /metrics
// (Prometheus text), /metrics.json, /healthz, /trace (ring snapshot),
// and /debug/pprof/*.
type AdminServer struct {
	registry *Registry
	ring     *Ring
	health   func() Health

	srv *http.Server
	ln  net.Listener
}

// NewAdminServer builds the server. ring and health may be nil: a nil
// ring makes /trace serve an empty list, a nil health makes /healthz
// always answer ok.
func NewAdminServer(registry *Registry, ring *Ring, health func() Health) *AdminServer {
	a := &AdminServer{registry: registry, ring: ring, health: health}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/metrics.json", a.handleMetricsJSON)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/trace", a.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return a
}

// Listen binds addr (e.g. "127.0.0.1:9100"; ":0" picks a free port)
// and starts serving in a background goroutine.
func (a *AdminServer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	a.ln = ln
	go a.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return nil
}

// Addr returns the bound address ("" before Listen).
func (a *AdminServer) Addr() string {
	if a.ln == nil {
		return ""
	}
	return a.ln.Addr().String()
}

// Close shuts the server down, waiting briefly for in-flight scrapes.
func (a *AdminServer) Close() error {
	if a.ln == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return a.srv.Shutdown(ctx)
}

func (a *AdminServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.registry.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
}

func (a *AdminServer) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	a.registry.WriteJSON(w) //nolint:errcheck
}

func (a *AdminServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{Status: "ok"}
	if a.health != nil {
		h = a.health()
	}
	w.Header().Set("Content-Type", "application/json")
	if h.Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h) //nolint:errcheck
}

func (a *AdminServer) handleTrace(w http.ResponseWriter, _ *http.Request) {
	var events []Event
	if a.ring != nil {
		events = a.ring.Snapshot()
	}
	if events == nil {
		events = []Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(events) //nolint:errcheck
}
