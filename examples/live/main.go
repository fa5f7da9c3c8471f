// Live: the same AITF round as examples/quickstart, but over real UDP
// sockets on the loopback interface with real time — four in-process
// nodes (victim, victim's gateway, attacker's gateway, attacker)
// exchanging the AITF wire format, with the attacker gateway's
// observability plane served over HTTP exactly as cmd/aitfd serves it:
// structured slog protocol events, and an admin endpoint exposing
// /metrics (Prometheus text), /healthz, /trace, and /debug/pprof you
// can curl while the demo runs. cmd/aitfd runs the same nodes as
// standalone processes.
package main

import (
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"aitf/internal/contract"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/wire"
)

func main() {
	var (
		victimA   = flow.MakeAddr(10, 0, 0, 2)
		vgwA      = flow.MakeAddr(10, 0, 0, 1)
		agwA      = flow.MakeAddr(10, 9, 0, 1)
		attackerA = flow.MakeAddr(10, 9, 0, 2)
	)
	chain := []flow.Addr{victimA, vgwA, agwA, attackerA}
	routes := func(self flow.Addr) map[flow.Addr]flow.Addr {
		pos := 0
		for i, a := range chain {
			if a == self {
				pos = i
			}
		}
		nh := map[flow.Addr]flow.Addr{}
		for i, a := range chain {
			switch {
			case i < pos:
				nh[a] = chain[pos-1]
			case i > pos:
				nh[a] = chain[pos+1]
			}
		}
		return nh
	}

	// Structured protocol logging: milestones at Info, shared by all
	// four nodes; the ring retains them for /trace.
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	ring := obs.NewRing(256)
	trace := obs.NewTrace(ring, logger)

	// Short timers so the demo finishes in a few wall-clock seconds.
	tm := contract.Timers{T: 5 * time.Second, Ttmp: 500 * time.Millisecond,
		Grace: 100 * time.Millisecond, Penalty: 5 * time.Second}

	vgw, err := wire.NewGateway(wire.GatewayConfig{
		Node:    wire.NodeConfig{Addr: vgwA, Name: "v_gw", NextHop: routes(vgwA)},
		Timers:  tm,
		Clients: map[flow.Addr]contract.Contract{victimA: contract.DefaultEndHost()},
		Default: contract.DefaultPeer(),
		Secret:  []byte("vgw-secret"),
		Trace:   trace,
	})
	must(err)
	defer vgw.Close()
	agw, err := wire.NewGateway(wire.GatewayConfig{
		Node:    wire.NodeConfig{Addr: agwA, Name: "a_gw", NextHop: routes(agwA)},
		Timers:  tm,
		Clients: map[flow.Addr]contract.Contract{attackerA: contract.DefaultEndHost()},
		Default: contract.DefaultPeer(),
		Secret:  []byte("agw-secret"),
		Trace:   trace,
	})
	must(err)
	defer agw.Close()
	victim, err := wire.NewHost(wire.HostConfig{
		Node:         wire.NodeConfig{Addr: victimA, Name: "victim", NextHop: routes(victimA)},
		Gateway:      vgwA,
		Timers:       tm,
		DetectBps:    20_000,
		DetectWindow: 100 * time.Millisecond,
		Compliant:    true,
		Trace:        trace,
	})
	must(err)
	defer victim.Close()
	attacker, err := wire.NewHost(wire.HostConfig{
		Node:      wire.NodeConfig{Addr: attackerA, Name: "attacker", NextHop: routes(attackerA)},
		Gateway:   agwA,
		Timers:    tm,
		Compliant: true, // it stops when ordered — try false and watch the filter hold
		Trace:     trace,
	})
	must(err)
	defer attacker.Close()

	// The attacker gateway's metrics plane: the filter that ends the
	// attack lives here, so this is the node an operator would scrape.
	registry := obs.NewRegistry()
	agw.RegisterMetrics(registry)
	admin := obs.NewAdminServer(registry, ring, nil)
	must(admin.Listen("127.0.0.1:0"))
	defer admin.Close()

	book := wire.Book{
		victimA:   victim.Node().UDPAddr().String(),
		vgwA:      vgw.Node().UDPAddr().String(),
		agwA:      agw.Node().UDPAddr().String(),
		attackerA: attacker.Node().UDPAddr().String(),
	}
	for _, n := range []*wire.Node{victim.Node(), vgw.Node(), agw.Node(), attacker.Node()} {
		n.SetBook(book)
	}
	victim.Run()
	vgw.Run()
	agw.Run()
	attacker.Run()

	fmt.Println("live AITF deployment on UDP loopback:")
	for a, ep := range book {
		fmt.Printf("  %v -> %s\n", a, ep)
	}
	fmt.Printf("\nattacker gateway admin endpoint: http://%s/metrics (also /healthz, /trace, /debug/pprof)\n", admin.Addr())
	fmt.Println("attacker floods ~100 KB/s; watch the round unfold:")

	done := time.After(4 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			fmt.Println("\n== outcome ==")
			fmt.Printf("victim received %.1f KB before filtering engaged\n",
				float64(victim.Stats().BytesReceived)/1e3)
			fmt.Printf("attacker suppressed %d sends after the stop order\n",
				attacker.Stats().StoppedSends)
			fmt.Printf("attacker gateway filters: %d\n", agw.Filters().Len())
			fmt.Println("\n== scraped from /metrics ==")
			printScrape(admin.Addr())
			return
		case <-tick.C:
			attacker.SendData(victimA, flow.ProtoUDP, 4000, 80, 500)
		}
	}
}

// printScrape fetches the Prometheus exposition and prints the AITF
// headline counters, as a monitoring system would see them.
func printScrape(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		for _, want := range []string{
			"aitf_dataplane_classified_total ",
			"aitf_dataplane_filter_drops_total ",
			"aitf_dataplane_filters ",
			"aitf_gateway_handshakes_ok_total ",
			"aitf_gateway_stop_orders_total ",
			"aitf_node_packets_received_total ",
		} {
			if strings.HasPrefix(line, want) {
				fmt.Println(line)
			}
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
