package dcdht

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/exp"
	"repro/internal/kts"
	"repro/internal/network/simwire"
	"repro/internal/onehop"
	"repro/internal/peer"
	"repro/internal/repair"
	"repro/internal/scenario"
)

// Key names a data item.
type Key = core.Key

// Timestamp is the 128-bit KTS logical timestamp.
type Timestamp = core.Timestamp

// Result reports one operation's outcome and cost (response time,
// messages, replicas probed, currency).
type Result = dht.OpResult

// Errors re-exported for callers to classify with errors.Is.
var (
	// ErrNotFound marks a key no reachable replica holds.
	ErrNotFound = core.ErrNotFound
	// ErrNoCurrentReplica marks a retrieve that fell back to the most
	// recent available replica because currency could not be proven;
	// classify with IsNoCurrent.
	ErrNoCurrentReplica = core.ErrNoCurrentReplica
	// ErrUnreachable marks an operation that could not reach any
	// responsible peer.
	ErrUnreachable = core.ErrUnreachable
	// ErrTimeout marks an operation that exceeded its deadline (also
	// wraps context.DeadlineExceeded when the context set it).
	ErrTimeout = core.ErrTimeout
)

// Mode selects the KTS counter initialization strategy.
type Mode = kts.InitMode

// Ring selects the overlay substrate a deployment runs on. All three
// substrates implement the same dht.Ring contract, so KTS/UMS/BRK run
// on any of them unchanged.
type Ring = peer.RingKind

// The ring substrates.
const (
	// RingChord is the paper's primary substrate: O(log n) finger-table
	// routing (default).
	RingChord = peer.RingChord
	// RingCAN is the d-dimensional coordinate-space overlay (§4.2.1.1).
	RingCAN = peer.RingCAN
	// RingOneHop keeps a full routing table per node via membership
	// event propagation: O(1) lookups bought with O(n) event fan-out
	// under churn (the D1HT trade).
	RingOneHop = peer.RingOneHop
)

// ParseRing parses the -ring flag spellings "chord", "can" and
// "onehop" (empty means the chord default).
func ParseRing(s string) (Ring, error) {
	kind, err := peer.ParseRing(s)
	if err != nil {
		return "", fmt.Errorf("dcdht: %w", err)
	}
	return kind, nil
}

// RepairStats reports the replica-maintenance subsystem's cumulative
// work: sweep rounds run, replicas actually healed (pushes kept under
// PutIfNewer), read-repair refreshes, and the maintenance traffic in
// messages and bytes. Aggregated across peers on SimNetwork; per node on
// Node.
type RepairStats = repair.Stats

// The two UMS variants of the paper's evaluation.
const (
	// ModeDirect transfers KTS counters directly on responsibility
	// changes (§4.2.1) — the default and the paper's best performer.
	ModeDirect = kts.ModeDirect
	// ModeIndirect re-initializes counters from the stored replicas
	// after a grace delay (§4.2.2) — cheaper joins, slower timestamping.
	ModeIndirect = kts.ModeIndirect
)

// IsNoCurrent reports whether err is the "stale but available" retrieve
// outcome: no replica carried the last generated timestamp, so the most
// recent available one was returned (Figure 2's data_mr path).
func IsNoCurrent(err error) bool { return errors.Is(err, core.ErrNoCurrentReplica) }

// Analysis helpers (§3.3, §4.2.2 closed forms).
var (
	// ExpectedRetrievals is E(X), the expected number of replicas UMS
	// probes given the probability of currency and availability.
	ExpectedRetrievals = analysis.ExpectedRetrievals
	// IndirectSuccessProb is ps = 1-(1-pt)^|Hr|.
	IndirectSuccessProb = analysis.IndirectSuccessProb
	// ReplicasForSuccess inverts ps for a target probability.
	ReplicasForSuccess = analysis.ReplicasForSuccess
)

// Float returns a pointer to v, for the optional float knobs (e.g.
// SimConfig.FailureRate) whose zero value must stay expressible:
// dcdht.Float(0) means "no failures", nil means "use the default".
func Float(v float64) *float64 { return &v }

// SimConfig tunes a simulated network. The zero value gives the paper's
// Table 1 environment with 10 replicas and the direct algorithm.
type SimConfig struct {
	// Replicas is |Hr|. Default 10 (Table 1). Zero is not a meaningful
	// replication factor, so the zero value selects the default.
	Replicas int
	// Mode selects UMS-Direct or UMS-Indirect. Default direct.
	Mode Mode
	// Seed makes the whole simulation reproducible. Default 1 (seed 0
	// itself is reserved as "unset"; every other value is used as given).
	Seed int64
	// Cluster selects the LAN profile instead of Table 1's WAN model.
	Cluster bool
	// Ring picks the overlay substrate. The zero value keeps the
	// paper's Chord; NewSimNetwork panics on a name that is none of the
	// three (use ParseRing on outside input).
	Ring Ring
	// RepublishEvery enables the periodic republisher with the given
	// period: peers re-push replicas they still hold but no longer own
	// to the current responsible, restoring reachability under the
	// paper's no-handoff data model. Zero disables it.
	RepublishEvery time.Duration
	// RepublishPerRound caps how many keys one republish round pushes
	// per peer. Default 16.
	RepublishPerRound int
	// FailureRate is the fraction of ChurnOne departures that crash
	// instead of leaving gracefully. nil selects Table 1's 0.05; use
	// Float(0) for a network whose departures are all graceful — a plain
	// float64 could not express that (its zero value meant the default).
	FailureRate *float64
	// GraceDelay overrides the indirect algorithm's wait. Zero selects
	// the KTS default (500ms); a negative value means "no wait".
	GraceDelay time.Duration
	// Inspect enables KTS periodic inspection with the given period.
	Inspect time.Duration
	// RepairEvery enables the replica-maintenance subsystem's
	// anti-entropy sweep with the given period: each peer periodically
	// re-pushes the current value of the keys it hosts to the current
	// replica set, healing replicas lost to churn. Zero disables it.
	RepairEvery time.Duration
	// RepairPerRound caps how many keys one sweep round repairs per
	// peer. Default 8.
	RepairPerRound int
	// ReadRepair enables opportunistic read-repair: a retrieve that
	// observes stale or missing replicas among the probed positions
	// refreshes them asynchronously with the value it found.
	ReadRepair bool
	// Scenario plays a scripted fault-and-condition schedule against
	// the network: events fire in virtual time, relative to the moment
	// NewSimNetwork returns, as the caller advances the clock. Build
	// one from Event values or BuiltinScenario. NewSimNetwork panics on
	// an invalid scenario (use Scenario.Validate to check one first);
	// nil plays nothing.
	Scenario *Scenario
}

// SimNetwork is a simulated deployment of peers running Chord + KTS +
// UMS + BRK. All methods drive virtual time; a retrieve that takes 6
// simulated seconds returns in microseconds of wall time.
type SimNetwork struct {
	cfg      SimConfig
	failRate float64
	d        *exp.Deployment
	rng      interface{ Intn(int) int }
	eng      *scenario.Engine // most recent scenario playback, nil if none
}

// NewSimNetwork builds and assembles a simulated network of n peers.
func NewSimNetwork(n int, cfg SimConfig) *SimNetwork {
	if n <= 0 {
		panic("dcdht: network needs at least one peer")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	failRate := 0.05 // Table 1
	if cfg.FailureRate != nil {
		failRate = *cfg.FailureRate
	}
	net := simwire.Table1()
	sc := exp.Table1Scenario(exp.AlgUMSDirect, n, cfg.Seed)
	chordCfg := sc.Chord
	// The alternative substrates' maintenance timers track chord's: one
	// liveness/update probe period and the shared RPC patience.
	canCfg := can.Config{PingEvery: chordCfg.CheckPredEvery, RPCTimeout: chordCfg.RPCTimeout}
	hopCfg := onehop.Config{PingEvery: chordCfg.CheckPredEvery, RPCTimeout: chordCfg.RPCTimeout}
	if cfg.Cluster {
		net = simwire.Cluster()
		chordCfg.RPCTimeout = 250 * time.Millisecond
		chordCfg.StabilizeEvery = 2 * time.Second
		chordCfg.FixFingersEvery = 2 * time.Second
		chordCfg.CheckPredEvery = 2 * time.Second
		canCfg = can.Config{PingEvery: 2 * time.Second, RPCTimeout: 250 * time.Millisecond}
		hopCfg = onehop.Config{PingEvery: 2 * time.Second, RPCTimeout: 250 * time.Millisecond}
	}
	d := exp.NewDeployment(exp.DeployConfig{
		Peers:             n,
		Replicas:          cfg.Replicas,
		Seed:              cfg.Seed,
		Net:               net,
		Ring:              cfg.Ring,
		Chord:             chordCfg,
		CAN:               canCfg,
		OneHop:            hopCfg,
		RepublishEvery:    cfg.RepublishEvery,
		RepublishPerRound: cfg.RepublishPerRound,
		KTS:               kts.Config{Mode: cfg.Mode, GraceDelay: cfg.GraceDelay, InspectEvery: cfg.Inspect},
		Repair:            repair.Config{Every: cfg.RepairEvery, PerRound: cfg.RepairPerRound, ReadRepair: cfg.ReadRepair},
	})
	sim := &SimNetwork{cfg: cfg, failRate: failRate, d: d, rng: d.K.NewRand("facade")}
	// Let maintenance settle before handing the network to the caller.
	d.RunFor(time.Minute)
	if cfg.Scenario != nil {
		if err := sim.PlayScenario(*cfg.Scenario); err != nil {
			panic(err)
		}
	}
	return sim
}

// Peers returns the number of live peers.
func (s *SimNetwork) Peers() int { return len(s.d.LivePeers()) }

// Now returns the current virtual time.
func (s *SimNetwork) Now() time.Duration { return s.d.K.Now() }

// Advance runs the simulation for d of virtual time (churn timers,
// stabilization, background repair all progress).
func (s *SimNetwork) Advance(d time.Duration) { s.d.RunFor(d) }

// Put implements Client: it stores data under key with a fresh
// timestamp, issued from a random (or pinned, see WithIssuer) live
// peer. The context's deadline is honored across every simulated RPC.
func (s *SimNetwork) Put(ctx context.Context, key Key, data []byte, opts ...OpOption) (Result, error) {
	return put(ctx, s, key, data, opts)
}

// Get implements Client: it returns the current replica of key, issued
// from a random (or pinned) live peer, at the requested consistency
// level (WithConsistency; provably current by default).
func (s *SimNetwork) Get(ctx context.Context, key Key, opts ...OpOption) (Result, error) {
	return get(ctx, s, key, opts)
}

// LastTS implements Client: it asks KTS for the last timestamp
// generated for key. WithIssuer selects the asking peer; with
// WithConsistency(Bounded(d)) a cached answer observed at most d ago is
// served without a network hop (and Eventual serves any cached answer).
func (s *SimNetwork) LastTS(ctx context.Context, key Key, opts ...OpOption) (Timestamp, error) {
	return lastTS(ctx, s, key, opts)
}

// PutMulti implements Client: the whole batch issues from one live
// peer. UMS writes share one batched KTS round per responsible
// (kts.GenTSBatch), then replicate concurrently, with per-key error
// isolation; BRK has no KTS round to batch, so its writes fan out per
// key. With no live peer left to issue from, the batch fails as a whole
// with ErrUnreachable, like a single operation.
func (s *SimNetwork) PutMulti(ctx context.Context, items []KV, opts ...OpOption) ([]MultiResult, error) {
	return putMulti(ctx, s, items, opts)
}

// GetMulti implements Client: the whole batch issues from one live
// peer. UMS reads at the provably-current level share one batched KTS
// last_ts round per responsible (kts.LastTSBatch); the relaxed levels
// and BRK have no KTS round to batch and fan out per key.
func (s *SimNetwork) GetMulti(ctx context.Context, keys []Key, opts ...OpOption) ([]MultiResult, error) {
	return getMulti(ctx, s, keys, opts)
}

// ChurnOne makes one random peer depart (gracefully or by failure per
// FailureRate) and joins a fresh replacement, keeping the population
// constant — one event of the paper's churn process.
func (s *SimNetwork) ChurnOne() {
	s.d.Do(func() {
		victim := s.d.RandomLivePeer(s.rng)
		if victim == nil {
			return
		}
		fail := s.rng.Intn(10000) < int(s.failRate*10000)
		s.d.Depart(victim, fail)
		s.d.SpawnJoin(s.rng)
	})
}

// FailOne crashes one random peer without replacement (drops the
// population by one, losing its replicas and counters).
func (s *SimNetwork) FailOne() {
	s.d.Do(func() {
		if victim := s.d.RandomLivePeer(s.rng); victim != nil {
			s.d.Depart(victim, true)
		}
	})
}

// RepairStats aggregates the replica-maintenance counters over every
// peer (zero when RepairEvery and ReadRepair are both off).
func (s *SimNetwork) RepairStats() RepairStats { return s.d.RepairStats() }

// MetricsSnapshot captures the deployment-wide metrics registry: every
// peer registers the same families, so the counters aggregate
// cluster-wide. All timings are virtual and no RNG is consumed, so the
// snapshot is bit-identical across replays of the same seed (see
// docs/OBSERVABILITY.md).
func (s *SimNetwork) MetricsSnapshot() *MetricsSnapshot { return s.d.Obs.Snapshot() }

// Close stops the simulation.
func (s *SimNetwork) Close() { s.d.K.Stop() }

// pickPeer selects the issuing peer for one operation: a random live
// peer, or the pinned index (modulo the live population).
func (s *SimNetwork) pickPeer(oc opConfig) *exp.Peer {
	if oc.peer >= 0 {
		live := s.d.LivePeers()
		if len(live) == 0 {
			return nil
		}
		return live[oc.peer%len(live)]
	}
	return s.d.RandomLivePeer(s.rng)
}

// admit implements issuer: every resolved option is honored here.
func (s *SimNetwork) admit(opConfig) error { return nil }

// issue implements issuer: one draw off the facade stream names the
// issuing peer (unless pinned), and fn runs as a simulation process
// while virtual time is driven until it completes.
func (s *SimNetwork) issue(oc opConfig, fn func(*peer.Stack)) error {
	p := s.pickPeer(oc)
	if p == nil {
		return fmt.Errorf("no live peer: %w", core.ErrUnreachable)
	}
	if !s.d.Do(func() { fn(p.Stack) }) {
		return fmt.Errorf("simulation stalled: %w", core.ErrTimeout)
	}
	return nil
}
