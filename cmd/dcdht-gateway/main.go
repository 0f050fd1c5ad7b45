// Command dcdht-gateway runs the coalescing front-end tier: an HTTP
// gateway that pools a few ephemeral ring clients, single-flights
// concurrent hot-key reads, and answers Bounded/Eventual reads from its
// last-timestamp cache without touching the KTS tier (see
// docs/GATEWAY.md).
//
// Usage:
//
//	dcdht-gateway serve -listen 127.0.0.1:8080 -backends 127.0.0.1:4000,127.0.0.1:4001
//	dcdht-gateway serve -backends 127.0.0.1:4000 -replicas 5
//
// The balancer benches a backend for 2s after 3 consecutive errors.
//
// The listener binds before any ring contact, so an occupied -listen
// fails fast (exit 1); flag and -backends syntax errors exit 2. The
// chosen listen address is printed on stdout as "listening ADDR".
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	dcdht "repro"
)

// newLogger builds the process logger from the -log-format flag. Logs
// go to stderr so the "listening ADDR" line stays clean on stdout.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dcdht-gateway serve [flags]")
	os.Exit(2)
}

// parseBackends validates the comma-separated -backends list: at least
// one element, each a syntactically valid host:port.
func parseBackends(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-backends is required: comma-separated host:port ring members")
	}
	var addrs []string
	for _, part := range strings.Split(s, ",") {
		a := strings.TrimSpace(part)
		if a == "" {
			return nil, fmt.Errorf("-backends has an empty element in %q", s)
		}
		if _, _, err := net.SplitHostPort(a); err != nil {
			return nil, fmt.Errorf("-backends element %q: %v", a, err)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP address to listen on, host:port (port 0 picks a free one)")
	backends := fs.String("backends", "", "comma-separated host:port ring members the gateway pools over (required)")
	replicas := fs.Int("replicas", 10, "|Hr|: replicas per data item (must match every ring member)")
	seed := fs.Int64("seed", 0, "seed for the gateway's derived streams; 0 derives one from the clock")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	fs.Parse(args)

	log, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	addrs, err := parseBackends(*backends)
	if err != nil {
		log.Error("bad -backends", "err", err)
		os.Exit(2)
	}

	// Bind before any ring contact so an occupied -listen fails fast.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	fmt.Printf("listening %s\n", ln.Addr())

	// One ephemeral client peer per backend address: each joins the
	// ring via its address, and the gateway balances over them.
	var nodes []*dcdht.Node
	leaveAll := func() {
		for _, nd := range nodes {
			nd.Leave()
		}
	}
	clients := make([]dcdht.Client, 0, len(addrs))
	for _, a := range addrs {
		nd, err := dcdht.StartNode("127.0.0.1:0", dcdht.NodeConfig{
			Replicas:       *replicas,
			Seed:           *seed,
			StabilizeEvery: 200 * time.Millisecond,
			GraceDelay:     100 * time.Millisecond,
		})
		if err != nil {
			log.Error("backend client start failed", "err", err)
			leaveAll()
			os.Exit(1)
		}
		nodes = append(nodes, nd)
		if err := nd.Join(a); err != nil {
			log.Error("join failed", "via", a, "err", err)
			leaveAll()
			os.Exit(1)
		}
		clients = append(clients, nd)
	}
	// One stabilization round so the ephemeral peers are fully linked.
	time.Sleep(500 * time.Millisecond)

	gw, err := dcdht.NewGateway(clients, dcdht.GatewayConfig{Seed: *seed})
	if err != nil {
		log.Error("gateway start failed", "err", err)
		leaveAll()
		os.Exit(1)
	}
	srv := &http.Server{Handler: gw}
	go srv.Serve(ln)
	log.Info("gateway up", "listen", ln.Addr().String(), "backends", len(clients),
		"endpoints", "/v1/kv /v1/last /metrics /debug/gateway")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	st := gw.Stats()
	log.Info("gateway summary",
		"flights", st.Flights, "coalesced", st.Coalesced,
		"cache_served", st.CacheServedGets+st.CacheServedLastTS,
		"backend_ops", st.BackendOps, "backend_errors", st.BackendErrors)
	srv.Close()
	gw.Close()
	leaveAll()
}
