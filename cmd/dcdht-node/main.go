// Command dcdht-node runs a real peer over TCP — the deployment unit of
// the paper's 64-node cluster experiment — or performs one-shot client
// operations through an ephemeral peer.
//
// Usage:
//
//	dcdht-node serve -listen 127.0.0.1:4000                  # first node
//	dcdht-node serve -listen 127.0.0.1:4001 -join 127.0.0.1:4000
//	dcdht-node serve -join 127.0.0.1:4000 -repair 30s -read-repair -inspect 1m
//	dcdht-node serve -listen 127.0.0.1:4000 -data-dir /var/lib/dcdht -fsync batch
//	dcdht-node serve -listen 127.0.0.1:4000 -metrics-addr 127.0.0.1:9090 -log-format json
//	dcdht-node put  -via 127.0.0.1:4000 agenda:mon "standup 9am"
//	dcdht-node get  -via 127.0.0.1:4000 agenda:mon
//	dcdht-node last -via 127.0.0.1:4000 agenda:mon           # KTS last_ts
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	dcdht "repro"
)

// newLogger builds the process logger from the -log-format flag:
// "text" for human-readable key=value lines, "json" for one JSON
// object per line (machine-ingestable). Both write to stderr so data
// output (put/get results) stays clean on stdout.
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
	case "put", "get", "last":
		client(os.Args[1], os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dcdht-node serve|put|get|last [flags] [args]")
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP address to listen on, host:port (port 0 picks a free one)")
	join := fs.String("join", "", "host:port of any ring member to join via; empty creates a new ring")
	ring := fs.String("ring", "chord", "overlay substrate: chord, can or onehop (must match every ring member; see docs/LOOKUP.md)")
	replicas := fs.Int("replicas", 10, "|Hr|: replicas per data item (must match every ring member)")
	indirect := fs.Bool("indirect", false, "use the indirect counter initialization (§4.2.2) instead of direct")
	seed := fs.Int64("seed", 0, "seed for the node's jitter streams; 0 derives one from the clock")
	repairEvery := fs.Duration("repair", 0, "anti-entropy sweep period as a duration, e.g. 30s (0 disables replica maintenance)")
	repairBudget := fs.Int("repair-budget", 0, "keys repaired per sweep round (0 selects the default, 8)")
	readRepair := fs.Bool("read-repair", false, "refresh stale/missing replicas observed by retrieves")
	inspect := fs.Duration("inspect", 0, "KTS periodic inspection period as a duration, e.g. 1m (0 disables)")
	inspectBudget := fs.Int("inspect-budget", 0, "counters re-read per inspection round (0 selects the default, 4)")
	dataDir := fs.String("data-dir", "", "directory for the write-ahead log; replicas and counters survive restarts (empty = volatile)")
	fsync := fs.String("fsync", "os", "log durability: always (fsync per append), batch (periodic flush) or os (page cache)")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address serving GET /metrics (Prometheus) and GET /debug/status (JSON); empty disables")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	fs.Parse(args)

	log, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	policy, err := dcdht.ParseFsyncPolicy(*fsync)
	if err != nil {
		log.Error("bad -fsync", "err", err)
		os.Exit(2)
	}
	ringKind, err := dcdht.ParseRing(*ring)
	if err != nil {
		log.Error("bad -ring", "err", err)
		os.Exit(2)
	}
	cfg := dcdht.NodeConfig{
		Replicas:        *replicas,
		Ring:            ringKind,
		Seed:            *seed,
		RepairEvery:     *repairEvery,
		RepairPerRound:  *repairBudget,
		ReadRepair:      *readRepair,
		Inspect:         *inspect,
		InspectPerRound: *inspectBudget,
		DataDir:         *dataDir,
		Fsync:           policy,
	}
	if *indirect {
		cfg.Mode = dcdht.ModeIndirect
	}
	node, err := dcdht.StartNode(*listen, cfg)
	if err != nil {
		switch {
		case errors.Is(err, dcdht.ErrCorruptLog):
			log.Error("start: corrupt log — recovery refuses to replay it; move the data directory aside or restore a backup",
				"data_dir", *dataDir, "err", err)
		case errors.Is(err, dcdht.ErrStorage):
			log.Error("start: data directory unusable", "data_dir", *dataDir, "err", err)
		default:
			log.Error("start failed", "err", err)
		}
		os.Exit(1)
	}
	if *dataDir != "" {
		rec := node.Recovered()
		log.Info("durable store opened",
			"data_dir", *dataDir, "fsync", policy,
			"recovered_replicas", rec.Items, "recovered_counters", rec.Counters,
			"torn_tail", rec.TornTail)
	}
	if *metricsAddr != "" {
		srv, err := node.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Error("metrics server failed", "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Info("metrics server up", "addr", srv.Addr(),
			"endpoints", "/metrics /debug/status")
	}
	if *join == "" {
		node.CreateRing()
		log.Info("created ring", "listen", node.Addr())
	} else {
		if err := node.Join(*join); err != nil {
			log.Error("join failed", "via", *join, "err", err)
			os.Exit(1)
		}
		log.Info("joined ring", "via", *join, "listen", node.Addr())
	}
	if *repairEvery > 0 || *readRepair {
		log.Info("replica maintenance on", "sweep", *repairEvery, "read_repair", *readRepair)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if st := node.RepairStats(); st.Rounds > 0 || st.ReadRepairs > 0 {
		log.Info("repair summary",
			"rounds", st.Rounds, "healed", st.Healed,
			"read_repairs", st.ReadRepairs, "msgs", st.Msgs)
	}
	log.Info("leaving gracefully (handing off replicas and counters)")
	if err := node.Leave(); err != nil {
		log.Error("leave failed", "err", err)
	}
}

func client(op string, args []string) {
	fs := flag.NewFlagSet(op, flag.ExitOnError)
	via := fs.String("via", "", "host:port of any ring member (required)")
	replicas := fs.Int("replicas", 10, "|Hr|: replicas per data item (must match every ring member)")
	timeout := fs.Duration("timeout", 30*time.Second, "deadline for the whole operation as a duration, e.g. 30s")
	baseline := fs.Bool("brk", false, "run the BRICKS baseline protocol instead of UMS")
	ring := fs.String("ring", "chord", "routing substrate the ring runs: chord, can or onehop (must match every ring member)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	fs.Parse(args)
	log, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *via == "" || fs.NArg() < 1 {
		fmt.Fprintf(os.Stderr, "usage: dcdht-node %s -via addr key [value]\n", op)
		os.Exit(2)
	}
	ringKind, err := dcdht.ParseRing(*ring)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	key := dcdht.Key(fs.Arg(0))

	node, err := dcdht.StartNode("127.0.0.1:0", dcdht.NodeConfig{
		Replicas:       *replicas,
		StabilizeEvery: 200 * time.Millisecond,
		GraceDelay:     100 * time.Millisecond,
		Ring:           ringKind,
	})
	if err != nil {
		log.Error("start failed", "err", err)
		os.Exit(1)
	}
	defer func() {
		node.Leave()
	}()
	if err := node.Join(*via); err != nil {
		log.Error("join failed", "via", *via, "err", err)
		os.Exit(1)
	}
	// One stabilization round so the ephemeral peer is fully linked.
	time.Sleep(500 * time.Millisecond)

	// One Client code path for both protocols: the algorithm is an
	// option, the deadline rides on the context.
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var opts []dcdht.OpOption
	if *baseline {
		opts = append(opts, dcdht.WithAlgorithm(dcdht.AlgBRK))
	}

	switch op {
	case "put":
		if fs.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "put needs a value")
			os.Exit(2)
		}
		r, err := node.Put(ctx, key, []byte(fs.Arg(1)), opts...)
		if err != nil {
			log.Error("put failed", "key", key, "err", err)
			os.Exit(1)
		}
		fmt.Printf("stored %d/%d replicas with %v in %s (%d msgs)\n",
			r.Stored, *replicas, r.TS, r.Elapsed.Round(time.Millisecond), r.Msgs)
	case "get":
		r, err := node.Get(ctx, key, opts...)
		if err != nil && !dcdht.IsNoCurrent(err) {
			log.Error("get failed", "key", key, "err", err)
			os.Exit(1)
		}
		status := "CURRENT"
		if !r.Current() {
			status = "most recent available (currency not provable)"
		}
		fmt.Printf("%s\n  status: %s, %v, probed %d replicas, %d msgs, %s\n",
			r.Data, status, r.TS, r.Probed, r.Msgs, r.Elapsed.Round(time.Millisecond))
	case "last":
		ts, err := node.LastTS(ctx, key)
		if err != nil {
			log.Error("last_ts failed", "key", key, "err", err)
			os.Exit(1)
		}
		fmt.Printf("last timestamp for %q: %v\n", key, ts)
	}
}
