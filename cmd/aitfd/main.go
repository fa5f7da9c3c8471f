// Command aitfd runs one AITF node (border router or end-host) over
// UDP, speaking the AITF wire format. A small JSON file describes the
// node, its neighbors, and its filtering contracts; a set of aitfd
// processes on one machine (or several) forms a live AITF deployment.
//
// Usage:
//
//	aitfd -config node.json [-log-level info]
//
// Configuration example (a victim's gateway; an unknown key is an
// error):
//
//	{
//	  "role":   "gateway",
//	  "addr":   "10.0.0.1",
//	  "name":   "v_gw",
//	  "listen": "127.0.0.1:7001",
//	  "admin":  "127.0.0.1:9100",
//	  "book":   {"10.0.0.2": "127.0.0.1:7002", "10.9.0.1": "127.0.0.1:7003"},
//	  "routes": {"10.0.0.2": "10.0.0.2", "10.9.0.1": "10.9.0.1", "10.9.0.2": "10.9.0.1"},
//	  "gateway": {
//	    "clients": ["10.0.0.2"],
//	    "secret":  "vgw-secret",
//	    "t_ms":    60000,
//	    "ttmp_ms": 600
//	  }
//	}
//
// A host node instead carries a "host" object:
//
//	"host": {"gateway": "10.0.0.1", "detect_bps": 20000, "compliant": true}
//
// A gateway can also defend legacy (non-AITF) clients itself: with
// gateway-side detection configured, it runs a sketch-based
// heavy-hitter engine (internal/detect) on its data path and files
// filtering requests on the clients' behalf:
//
//	"gateway": {
//	  "clients":    ["10.0.0.2"],
//	  "secret":     "vgw-secret",
//	  "detect_bps": 30000,
//	  "detect_for": ["10.0.0.2"],
//	  "detect_window_ms": 250,
//	  "sketch_width": 1024, "sketch_depth": 4, "detect_topk": 128
//	}
//
// # Observability
//
// The "admin" key starts an HTTP listener serving the node's
// observability plane:
//
//	/metrics          Prometheus text exposition of every counter the
//	                  node keeps (aitf_dataplane_*, aitf_gateway_*,
//	                  aitf_host_*, aitf_detect_*, aitf_node_*)
//	/metrics.json     the same registry as a JSON snapshot
//	/healthz          JSON health: filter-table occupancy and drain
//	                  state; answers 503 once shutdown has begun
//	/trace            the bounded ring of structured protocol events
//	/debug/pprof/*    the standard net/http/pprof handlers
//
// Protocol milestones (detections, temp filter installs, handshakes,
// stop orders) are logged through log/slog at Info and retained in the
// /trace ring; chattier diagnostics appear at -log-level debug. On
// SIGTERM or SIGINT the daemon drains gracefully: /healthz flips to
// 503, the UDP socket stops accepting, and a final structured snapshot
// of the counters is logged before exit.
//
// # Crash/restart survival
//
// With "snapshot_path" set in the gateway object, the drain also
// writes the gateway's durable state — filter table, shadow cache,
// in-flight handshakes, counters — to that file (readable by its
// owner only), and the next boot restores it with every original
// deadline honored (every instant moves by one offset that charges the
// downtime), so a daemon restart mid-attack keeps filtering. A file
// in an older format is refused, and the daemon boots fresh. "ctrl_max_attempts",
// "ctrl_rto_ms", and "ctrl_jitter" arm bounded control-plane
// retransmission with exponential backoff; receivers drop duplicate
// deliveries by transaction id, so retries never double-install a
// filter or double-count a handshake.
//
// See internal/wire.FileConfig for the full schema.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"aitf/internal/obs"
	"aitf/internal/wire"
)

func main() {
	cfgPath := flag.String("config", "", "path to the node's JSON configuration")
	logLevel := flag.String("log-level", "info", "slog level: debug, info, warn, or error")
	flag.Parse()
	if *cfgPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "aitfd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	d, err := start(*cfgPath, logger)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigCh
	signal.Stop(sigCh)

	// Graceful drain: health flips to 503 first so a balancer stops
	// routing here, the socket stops accepting, and the final counter
	// snapshot goes out as one structured line.
	d.beginDrain()
	logger.Info("shutting down", append([]any{"signal", sig.String(), "node", d.name}, d.finalSnapshot()...)...)
	if err := d.Close(); err != nil {
		logger.Error("shutdown error", "err", err)
		os.Exit(1)
	}
}

// daemon is one running aitfd node plus its observability plane.
type daemon struct {
	name     string
	log      *slog.Logger
	registry *obs.Registry
	ring     *obs.Ring
	admin    *obs.AdminServer
	draining atomic.Bool

	// Exactly one of gw / host is non-nil.
	gw   *wire.Gateway
	host *wire.Host
}

// start loads the configuration and boots the described node with its
// metrics registry, trace ring, and (when configured) admin listener.
// Split from main so tests can drive the full config-to-socket-to-
// scrape path without signals.
func start(cfgPath string, logger *slog.Logger) (*daemon, error) {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	cfg, err := wire.ParseFileConfig(raw)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.Default()
	}
	d := &daemon{
		name:     cfg.Name,
		log:      logger,
		registry: obs.NewRegistry(),
		ring:     obs.NewRing(1024),
	}
	trace := obs.NewTrace(d.ring, logger)

	switch cfg.Role {
	case "gateway":
		gcfg, err := cfg.GatewayConfig(trace)
		if err != nil {
			return nil, err
		}
		g, err := wire.NewGateway(gcfg)
		if err != nil {
			return nil, err
		}
		// Restore-on-boot: with snapshot_path configured, a previous
		// drain's filters/shadows/pendings come back with their original
		// deadlines before the socket starts accepting.
		if snap, rerr := g.RestoreFromDisk(); rerr != nil {
			logger.Warn("snapshot restore failed, starting fresh", "node", cfg.Name, "err", rerr)
		} else if snap != nil {
			st := g.Stats()
			logger.Info("state restored from drain snapshot", "node", cfg.Name,
				"filters", st.FiltersRestored, "shadows", st.ShadowsRestored,
				"pendings", len(snap.Pendings))
		}
		g.RegisterMetrics(d.registry)
		g.Run()
		d.gw = g
		logger.Info("gateway listening", "node", cfg.Name, "addr", cfg.Addr, "udp", g.Node().UDPAddr().String())
	default: // "host"; ParseFileConfig rejects anything else
		hcfg, err := cfg.HostConfig(trace)
		if err != nil {
			return nil, err
		}
		h, err := wire.NewHost(hcfg)
		if err != nil {
			return nil, err
		}
		h.RegisterMetrics(d.registry)
		h.Run()
		d.host = h
		logger.Info("host listening", "node", cfg.Name, "addr", cfg.Addr, "udp", h.Node().UDPAddr().String())
	}

	if cfg.Admin != "" {
		admin := obs.NewAdminServer(d.registry, d.ring, d.health)
		if err := admin.Listen(cfg.Admin); err != nil {
			d.closeNode() //nolint:errcheck // admin bind failure is the reported error
			return nil, fmt.Errorf("admin listen %q: %w", cfg.Admin, err)
		}
		d.admin = admin
		logger.Info("admin listening", "node", cfg.Name, "http", admin.Addr())
	}
	return d, nil
}

// AdminAddr returns the bound admin address ("" when disabled).
func (d *daemon) AdminAddr() string {
	if d.admin == nil {
		return ""
	}
	return d.admin.Addr()
}

// health reports drain state and the data structures an operator
// watches for capacity: filter-table and shadow-cache occupancy.
func (d *daemon) health() obs.Health {
	h := obs.Health{Status: "ok", Details: map[string]any{}}
	if d.draining.Load() {
		h.Status, h.Draining = "draining", true
	}
	if d.gw != nil {
		dp := d.gw.DataPlane()
		h.Details["filters"] = dp.Len()
		h.Details["filter_capacity"] = dp.FilterCapacity()
		h.Details["shadow_entries"] = dp.ShadowLen()
		h.Details["shadow_capacity"] = dp.ShadowCapacity()
	}
	return h
}

// beginDrain marks the daemon as draining: /healthz answers 503 from
// the next scrape on.
func (d *daemon) beginDrain() { d.draining.Store(true) }

// finalSnapshot renders the node's headline counters as slog attrs for
// the shutdown line.
func (d *daemon) finalSnapshot() []any {
	if d.gw != nil {
		st := d.gw.Stats()
		dp := d.gw.DataPlane()
		return []any{
			"classified", dp.Classified(),
			"filter_drops", st.FilterDrops,
			"filters", dp.Len(),
			"handshakes_ok", st.HandshakesOK,
			"stop_orders", st.StopOrders,
			"detections", st.Detections,
		}
	}
	st := d.host.Stats()
	return []any{
		"bytes_received", st.BytesReceived,
		"requests_sent", st.RequestsSent,
		"stop_orders_received", st.StopOrdersReceived,
		"suppressed_sends", st.SuppressedSends,
	}
}

// closeNode shuts the wire node down.
func (d *daemon) closeNode() error {
	if d.gw != nil {
		return d.gw.Close()
	}
	return d.host.Close()
}

// Close stops the node (no more packets accepted) and then the admin
// listener, so a final scrape racing shutdown still gets an answer.
func (d *daemon) Close() error {
	err := d.closeNode()
	if d.admin != nil {
		if aerr := d.admin.Close(); err == nil {
			err = aerr
		}
	}
	return err
}
