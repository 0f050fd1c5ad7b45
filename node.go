package dcdht

import (
	"context"
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network"
	"repro/internal/network/tcpwire"
	"repro/internal/obs"
	"repro/internal/onehop"
	"repro/internal/peer"
	"repro/internal/repair"
	"repro/internal/store"
)

// FsyncPolicy selects when a durable node's write-ahead log reaches
// stable storage (see docs/STORAGE.md for the trade-offs).
type FsyncPolicy = store.SyncPolicy

// The fsync policies, in decreasing durability / increasing throughput.
const (
	// FsyncAlways fsyncs after every append.
	FsyncAlways = store.SyncAlways
	// FsyncBatch flushes on a short background interval.
	FsyncBatch = store.SyncBatch
	// FsyncOS leaves flushing to the OS page cache (default).
	FsyncOS = store.SyncOS
)

// ParseFsyncPolicy parses the -fsync flag spellings "always", "batch"
// and "os" (empty means the default).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return store.ParseSyncPolicy(s) }

// Storage errors, for classifying StartNode failures with errors.Is.
var (
	// ErrStorage marks any storage failure (unusable data dir, write
	// errors, corruption).
	ErrStorage = store.ErrStore
	// ErrCorruptLog marks unrecoverable mid-log or snapshot corruption in
	// the data directory — a torn final record (the normal crash residue)
	// is repaired silently and never raises it.
	ErrCorruptLog = store.ErrCorruptLog
)

// NodeConfig tunes a real (TCP) peer. All peers of one ring must agree
// on Replicas.
type NodeConfig struct {
	// Replicas is |Hr|. Default 10.
	Replicas int
	// Ring picks the overlay substrate (RingChord, RingCAN or
	// RingOneHop). The zero value keeps the paper's Chord. All members
	// of one deployment must run the same substrate.
	Ring Ring
	// Mode selects the counter initialization strategy. Default direct.
	Mode Mode
	// Seed drives the node's jitter streams; 0 derives one from the
	// clock.
	Seed int64
	// StabilizeEvery overrides the maintenance period (default 1s on
	// real deployments, where RPCs are cheap).
	StabilizeEvery time.Duration
	// GraceDelay overrides the indirect algorithm's wait. Zero selects
	// the KTS default (500ms); a negative value means "no wait".
	GraceDelay time.Duration
	// Inspect enables KTS periodic inspection (§4.2.2) with the given
	// period: the responsible re-reads replicas and raises counters that
	// initialization under-estimated. Zero disables it.
	Inspect time.Duration
	// InspectPerRound caps how many counters one inspection round
	// re-reads. Default 4.
	InspectPerRound int
	// RepairEvery enables the replica-maintenance subsystem's
	// anti-entropy sweep with the given period: the node periodically
	// re-pushes the current value of the keys it hosts to the current
	// replica set, healing replicas lost to churn. Zero disables it.
	RepairEvery time.Duration
	// RepairPerRound caps how many keys one sweep round repairs.
	// Default 8.
	RepairPerRound int
	// ReadRepair enables opportunistic read-repair: a retrieve that
	// observes stale or missing replicas among the probed positions
	// refreshes them asynchronously with the value it found.
	ReadRepair bool
	// RepublishEvery enables the periodic republisher with the given
	// period: the node re-pushes replicas it still holds but no longer
	// owns to the current responsible. Zero disables it.
	RepublishEvery time.Duration
	// RepublishPerRound caps how many keys one republish round pushes.
	// Default 16.
	RepublishPerRound int
	// DataDir, when non-empty, makes the node durable: hosted replicas
	// and KTS counters are persisted to a write-ahead log in this
	// directory and recovered on the next start, feeding the paper's
	// §4.2.2 restart path (a restarted responsible generates strictly
	// increasing timestamps and ships its counters to whoever is
	// responsible now). Empty keeps the volatile default: a crash loses
	// everything.
	DataDir string
	// Fsync selects the durability of each log append; only meaningful
	// with DataDir. Default FsyncOS.
	Fsync FsyncPolicy
}

// Node is one real peer: a TCP endpoint running Chord, KTS, UMS and BRK
// — the deployment unit of the paper's cluster experiment — plus the
// replica-maintenance subsystem when enabled.
type Node struct {
	env   *network.RealEnv
	ep    *tcpwire.Endpoint
	stack *peer.Stack
	wal   *store.WAL // nil when the node is volatile
	obs   *obs.Registry
}

// StartNode opens a TCP endpoint on listen ("127.0.0.1:0" picks a free
// port) and prepares all services. Call CreateRing or Join next.
func StartNode(listen string, cfg NodeConfig) (*Node, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = 10
	}
	if cfg.StabilizeEvery == 0 {
		cfg.StabilizeEvery = time.Second
	}
	reg := obs.NewRegistry()
	ep, err := tcpwire.ListenWith(listen, reg)
	if err != nil {
		return nil, fmt.Errorf("dcdht: start node: %w", err)
	}
	// Replicas and counters share the one recoverable unit (when
	// durable): the log backs the replica store and journals the KTS
	// counters.
	var wal *store.WAL
	var backing store.Store
	if cfg.DataDir != "" {
		wal, err = store.OpenWAL(cfg.DataDir, store.WALOptions{Policy: cfg.Fsync})
		if err != nil {
			ep.Close()
			return nil, fmt.Errorf("dcdht: start node: %w", err)
		}
		backing = wal
	}
	env := network.NewRealEnv(cfg.Seed)
	const rpcTimeout = 2 * time.Second
	stack, err := peer.New(env, ep, backing, peer.Config{
		Set:  hashing.NewSet(cfg.Replicas),
		Ring: cfg.Ring,
		Chord: chord.Config{
			StabilizeEvery:  cfg.StabilizeEvery,
			FixFingersEvery: cfg.StabilizeEvery,
			CheckPredEvery:  cfg.StabilizeEvery,
			RPCTimeout:      rpcTimeout,
		},
		CAN:       can.Config{PingEvery: cfg.StabilizeEvery, RPCTimeout: rpcTimeout},
		OneHop:    onehop.Config{PingEvery: cfg.StabilizeEvery, RPCTimeout: rpcTimeout},
		Republish: dht.RepublishConfig{Every: cfg.RepublishEvery, PerRound: cfg.RepublishPerRound},
		KTS: kts.Config{
			Mode:            cfg.Mode,
			GraceDelay:      cfg.GraceDelay,
			InspectEvery:    cfg.Inspect,
			InspectPerRound: cfg.InspectPerRound,
		},
		Repair: repair.Config{Every: cfg.RepairEvery, PerRound: cfg.RepairPerRound, ReadRepair: cfg.ReadRepair},
		Obs:    reg,
	})
	if err != nil {
		env.Close()
		if wal != nil {
			wal.Close()
		}
		ep.Close()
		return nil, fmt.Errorf("dcdht: start node: %w", err)
	}
	reg.GaugeFunc("dcdht_store_items",
		"Replicas this node currently hosts.",
		func() float64 { return float64(stack.Node.Store().Len()) })
	if wal != nil {
		// The WAL keeps its own counters (it must not depend on obs);
		// scrape-time collectors bridge them into the registry.
		reg.CounterFunc("dcdht_store_wal_appends_total",
			"Records appended to the write-ahead log.",
			func() float64 { return float64(wal.Stats().Appends) })
		reg.CounterFunc("dcdht_store_wal_fsyncs_total",
			"Successful fsyncs of the log and snapshot files.",
			func() float64 { return float64(wal.Stats().Fsyncs) })
		reg.CounterFunc("dcdht_store_wal_compactions_total",
			"Snapshot+truncate compaction cycles.",
			func() float64 { return float64(wal.Stats().Compactions) })
		rec := wal.Recovered()
		reg.GaugeFunc("dcdht_store_wal_recovered_records",
			"Log records replayed at the last start.",
			func() float64 { return float64(rec.Records) })
		reg.GaugeFunc("dcdht_store_wal_torn_tail",
			"1 when the last start discarded a torn final record.",
			func() float64 {
				if rec.TornTail {
					return 1
				}
				return 0
			})
	}
	return &Node{env: env, ep: ep, stack: stack, wal: wal, obs: reg}, nil
}

// Addr returns the node's listen address (give it to joiners).
func (n *Node) Addr() string { return string(n.ep.Addr()) }

// CreateRing makes this node the first of a new ring and starts
// maintenance (Chord stabilization plus the replica-maintenance sweep,
// when enabled).
func (n *Node) CreateRing() {
	n.stack.Node.CreateRing()
	n.stack.Start()
}

// Join attaches this node to the ring reachable at bootstrap and starts
// maintenance. A durable node that recovered counters also runs the
// §4.2.2 recovery strategy in the background: it ships them to whoever
// is responsible now, so counters that moved on while this node was
// down get corrected upward (use Recover directly for a synchronous,
// deterministic run).
func (n *Node) Join(bootstrap string) error {
	if err := n.stack.Node.Join(network.Addr(bootstrap)); err != nil {
		return err
	}
	n.stack.Start()
	if n.wal != nil && n.Recovered().Counters > 0 {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			n.stack.KTS.RecoverTo(ctx)
		}()
	}
	return nil
}

// Recovered reports what a durable node reconstructed from its data
// directory at start; zero for a volatile node.
func (n *Node) Recovered() store.Recovered {
	if n.wal == nil {
		return store.Recovered{}
	}
	return n.wal.Recovered()
}

// Recover synchronously ships the node's counters to the peers
// currently responsible for them (§4.2.2's recovery strategy),
// returning how many remote counters were corrected upward. Join
// already triggers this in the background after a durable restart.
func (n *Node) Recover(ctx context.Context) (int, error) {
	return n.stack.KTS.RecoverTo(ctx)
}

// Republished reports how many replicas the periodic republisher has
// pushed to their current responsible (zero when RepublishEvery is
// off).
func (n *Node) Republished() uint64 {
	if n.stack.Repub == nil {
		return 0
	}
	return n.stack.Repub.Pushed()
}

// RepairStats reports the replica-maintenance subsystem's counters for
// this node (zero when RepairEvery and ReadRepair are both off).
func (n *Node) RepairStats() RepairStats {
	if n.stack.Repair == nil {
		return RepairStats{}
	}
	return n.stack.Repair.Stats()
}

// admit implements issuer: a node always issues from itself, so an
// issuer pin is rejected with ErrBadOption.
func (n *Node) admit(oc opConfig) error {
	if oc.issuerSet {
		return fmt.Errorf("WithIssuer on a TCP node (a node always issues from itself): %w", ErrBadOption)
	}
	return nil
}

// issue implements issuer: fn runs on the node's own stack.
func (n *Node) issue(_ opConfig, fn func(*peer.Stack)) error {
	fn(n.stack)
	return nil
}

// Put implements Client: it stores data under key with a fresh
// timestamp, issued from this node. The context's deadline and
// cancellation are honored natively by the TCP transport.
func (n *Node) Put(ctx context.Context, key Key, data []byte, opts ...OpOption) (Result, error) {
	return put(ctx, n, key, data, opts)
}

// Get implements Client: it returns the current replica of key, at the
// requested consistency level (WithConsistency; provably current by
// default).
func (n *Node) Get(ctx context.Context, key Key, opts ...OpOption) (Result, error) {
	return get(ctx, n, key, opts)
}

// LastTS implements Client: it asks KTS for the last timestamp
// generated for key. With WithConsistency(Bounded(d)) a cached answer
// observed at most d ago is served without a network hop (and Eventual
// serves any cached answer).
func (n *Node) LastTS(ctx context.Context, key Key, opts ...OpOption) (Timestamp, error) {
	return lastTS(ctx, n, key, opts)
}

// PutMulti implements Client: UMS writes share one batched KTS round
// per responsible (kts.GenTSBatch), then replicate concurrently, with
// per-key error isolation. BRK writes have no KTS round to batch and
// fan out per key. Invalid options fail the batch as a whole.
func (n *Node) PutMulti(ctx context.Context, items []KV, opts ...OpOption) ([]MultiResult, error) {
	return putMulti(ctx, n, items, opts)
}

// GetMulti implements Client: UMS reads at the provably-current level
// share one batched KTS last_ts round per responsible
// (kts.LastTSBatch); the relaxed levels and BRK fan out per key. Every
// outcome keeps its per-key error isolation.
func (n *Node) GetMulti(ctx context.Context, keys []Key, opts ...OpOption) ([]MultiResult, error) {
	return getMulti(ctx, n, keys, opts)
}

// Leave departs gracefully, handing replicas and counters to the
// successor, flushing and closing the durable store (when there is
// one), then closes the endpoint.
func (n *Node) Leave() error {
	err := n.stack.Node.Leave()
	if n.wal != nil {
		if cerr := n.wal.Close(); err == nil {
			err = cerr
		}
	}
	n.env.Close()
	n.ep.Close()
	return err
}

// Close shuts the node down abruptly (crash semantics: no handoff, no
// flush — a durable store keeps only what its fsync policy had already
// made stable, exactly like SIGKILL).
func (n *Node) Close() {
	n.stack.Node.Crash()
	n.env.Close()
	n.ep.Close()
}
