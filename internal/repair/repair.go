// Package repair is the replica-maintenance subsystem: it keeps the
// probability of currency and availability from decaying between updates
// by refreshing replicas that churn destroyed.
//
// The paper's model (§2) loses a replica whenever its responsible
// departs, and nothing restores it until the next insert — which is
// exactly why the probability of currency degrades with the failure rate
// (Figures 11–12). This package adds the two classic countermeasures on
// top of the unchanged UMS/KTS protocols:
//
//   - anti-entropy sweep: each peer periodically walks the keys it hosts
//     replicas for, asks KTS for the key's last generated timestamp, and
//     re-pushes the freshest reachable value to the *current* replica set
//     rsp(k, h) for every h ∈ Hr. Pushes use dht.PutIfNewer, so a sweep
//     can only move replicas forward in time — a concurrent insert always
//     wins;
//   - read-repair: when a UMS retrieve observes stale or missing replicas
//     among the positions it probed, the subsystem asynchronously
//     refreshes exactly those positions with the value the retrieve
//     found. The refresh rides the retrieve's observation and costs no
//     extra reads.
//
// Both paths are driven through the network.Env abstraction, so under
// simulation every timer and refresh runs in deterministic virtual time
// (same seed, bit-identical schedule) while the TCP deployment gets real
// background goroutines from the same code.
package repair

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network"
)

// Config tunes the subsystem. The zero value disables both mechanisms;
// services are cheap to construct unconditionally and activate per knob.
type Config struct {
	// Every is the anti-entropy sweep period; zero disables the sweep.
	// Each peer jitters its rounds (up to a quarter period) so sweeps do
	// not synchronize across the network.
	Every time.Duration
	// PerRound caps how many distinct keys one sweep round repairs; the
	// remaining keys rotate into later rounds. Default 8.
	PerRound int
	// ReadRepair enables opportunistic refresh of stale or missing
	// replicas observed by UMS retrieves.
	ReadRepair bool
}

func (c Config) withDefaults() Config {
	if c.PerRound == 0 {
		c.PerRound = 8
	}
	return c
}

// Enabled reports whether any maintenance mechanism is active.
func (c Config) Enabled() bool { return c.Every > 0 || c.ReadRepair }

// Stats counts the subsystem's work on one peer. All counters are
// cumulative since the service started.
type Stats struct {
	// Rounds is the number of completed sweep rounds.
	Rounds uint64
	// KeysScanned counts key repairs attempted by the sweep.
	KeysScanned uint64
	// Healed counts replicas the sweep actually restored or advanced
	// (pushes the responsible peer kept; rejected PutIfNewer pushes are
	// not heals).
	Healed uint64
	// ReadRepairs counts replicas restored or advanced by read-repair.
	ReadRepairs uint64
	// Msgs and Bytes are the communication cost of all maintenance
	// traffic this peer initiated (sweep reads and pushes, read-repair
	// pushes), measured with the same meters as foreground operations.
	Msgs  uint64
	Bytes uint64
	// Errors counts repair attempts abandoned on RPC or KTS failures.
	Errors uint64
}

// Add folds other into s; facades aggregate per-peer stats with it.
func (s *Stats) Add(other Stats) {
	s.Rounds += other.Rounds
	s.KeysScanned += other.KeysScanned
	s.Healed += other.Healed
	s.ReadRepairs += other.ReadRepairs
	s.Msgs += other.Msgs
	s.Bytes += other.Bytes
	s.Errors += other.Errors
}

// Service is the per-peer maintenance instance. It is constructed next
// to UMS with the same ring/set/KTS plumbing and reads the peer's
// LocalStore to discover which keys it hosts.
type Service struct {
	ring   dht.Ring
	set    hashing.Set
	ts     *kts.Service
	store  *dht.LocalStore
	client *dht.Client
	ns     string
	cfg    Config

	mu      sync.Mutex
	stats   Stats
	started bool
}

// New attaches a maintenance service to a peer. ns names the replica
// namespace to maintain (ums.Namespace for the UMS protocol); replicas
// stored by other services (e.g. BRK) are left alone. Call Start to
// launch the sweep.
func New(ring dht.Ring, set hashing.Set, ts *kts.Service, store *dht.LocalStore, ns string, cfg Config) *Service {
	s := &Service{
		ring:   ring,
		set:    set,
		ts:     ts,
		store:  store,
		client: dht.NewClient(ring, ns),
		ns:     ns,
		cfg:    cfg.withDefaults(),
	}
	// The subsystem already keeps cumulative Stats under its own lock;
	// the ring's registry reads the round count at scrape time instead
	// of double-counting on the hot path. Per-peer registrations under a
	// shared deployment registry sum into one cluster-wide series; the
	// other counts are read through Stats.
	ring.Obs().CounterFunc("dcdht_repair_rounds_total",
		"Anti-entropy sweep rounds completed.", func() float64 { return float64(s.Stats().Rounds) })
	return s
}

// Config returns the effective configuration.
func (s *Service) Config() Config { return s.cfg }

// Stats returns a snapshot of the maintenance counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Start launches the periodic anti-entropy sweep (idempotent; a no-op
// when the sweep is disabled). Read-repair needs no loop — it is fed by
// retrieve observations — so Start only concerns the sweep.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started || s.cfg.Every <= 0 {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	dht.Every(s.ring, "repair", s.cfg.Every, func(rng *rand.Rand) { s.SweepOnce(rng) })
}

// SweepOnce runs one anti-entropy round: pick up to PerRound hosted keys
// (rotating start so the whole store is covered across rounds) and
// repair each. It returns the number of replicas healed this round.
// Exposed so tests and operators can force a round outside the timer.
func (s *Service) SweepOnce(rng interface{ Intn(int) int }) int {
	keys, local := s.hostedKeys()
	healed := 0
	if len(keys) > 0 {
		limit := s.cfg.PerRound
		if limit > len(keys) {
			limit = len(keys)
		}
		start := rng.Intn(len(keys))
		for i := 0; i < limit; i++ {
			k := keys[(start+i)%len(keys)]
			healed += s.repairKey(k, local[k])
		}
	}
	s.mu.Lock()
	s.stats.Rounds++
	s.mu.Unlock()
	return healed
}

// hostedKey is what the sweep knows about one locally hosted key: the
// freshest locally held value and which replica positions (by hash
// function name) this peer itself hosts — those need no network read.
type hostedKey struct {
	best  core.Value
	local map[string]bool
}

// hostedKeys snapshots the local store and returns the distinct keys of
// this service's namespace in sorted order (map iteration is not
// deterministic; the sort keeps simulated sweeps reproducible), plus the
// per-key local knowledge.
func (s *Service) hostedKeys() ([]core.Key, map[core.Key]hostedKey) {
	info := make(map[core.Key]hostedKey)
	for _, it := range s.store.Snapshot() {
		ns, k, hname, ok := dht.ParseQualifier(it.Qual)
		if !ok || ns != s.ns {
			continue
		}
		cur, seen := info[k]
		if !seen {
			cur.local = make(map[string]bool)
		}
		cur.local[hname] = true
		if !seen || cur.best.TS.Less(it.Val.TS) {
			cur.best = it.Val
		}
		info[k] = cur
	}
	keys := make([]core.Key, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, info
}

// repairKey heals one key: learn the last generated timestamp, locate
// the freshest reachable value, and re-push it to the current replica
// set. hk seeds the search with what this peer already hosts, so a sweep
// over healthy replicas costs one last_ts round trip and |Hr| pushes, no
// reads.
func (s *Service) repairKey(k core.Key, hk hostedKey) int {
	meter := &network.Meter{}
	ctx := network.WithMeter(context.Background(), meter)
	defer func() {
		s.mu.Lock()
		s.stats.Msgs += uint64(meter.Msgs)
		s.stats.Bytes += uint64(meter.Bytes)
		s.mu.Unlock()
	}()

	ts1, err := s.ts.LastTS(ctx, k)
	if err != nil {
		s.bump(func(st *Stats) { st.Errors++ })
		return 0
	}
	s.bump(func(st *Stats) { st.KeysScanned++ })

	// Find the freshest reachable value. The local replicas are free;
	// read the remaining positions only while the local best is older
	// than the last generated timestamp (a current local replica needs no
	// network reads at all).
	best := hk.best
	if best.TS.Less(ts1) {
		for _, h := range s.set.Hr {
			if hk.local[h.Name()] {
				continue // hosted here: already folded into best
			}
			val, gerr := s.client.GetH(ctx, k, h)
			if gerr != nil {
				continue // unavailable replica: the push below restores it
			}
			if best.TS.Less(val.TS) {
				best = val
			}
			if !best.TS.Less(ts1) {
				break // found a current replica; no point reading further
			}
		}
	}
	if best.Data == nil && best.TS.IsZero() {
		return 0 // nothing reachable to push
	}

	// Re-push to the current replica set. PutIfNewer makes the push
	// monotone: it restores lost replicas and advances stale ones, and is
	// rejected wherever an equal-or-newer replica already lives.
	healed := 0
	for _, h := range s.set.Hr {
		stored, perr := s.client.PutHStored(ctx, k, h, best, dht.PutIfNewer)
		switch {
		case perr != nil:
			s.bump(func(st *Stats) { st.Errors++ })
		case stored:
			healed++
		}
	}
	if healed > 0 {
		s.bump(func(st *Stats) { st.Healed += uint64(healed) })
	}
	return healed
}

// ReadRepair implements ums.ReadRepairer: asynchronously refresh the
// replica positions a retrieve observed as stale or missing with the
// value the retrieve returned. The push uses PutIfNewer, so a repair can
// never regress a replica that a concurrent insert advanced past the
// observation. Runs as its own activity; the caller's retrieve has
// already returned.
func (s *Service) ReadRepair(k core.Key, current core.Value, stale []hashing.Func) {
	if !s.cfg.ReadRepair || len(stale) == 0 || !s.ring.Alive() {
		return
	}
	// Copy the observation: the retrieve's buffers must not be shared
	// with an activity that outlives it.
	val := current.Clone()
	hs := make([]hashing.Func, len(stale))
	copy(hs, stale)
	s.ring.Env().Go(func() {
		meter := &network.Meter{}
		ctx := network.WithMeter(context.Background(), meter)
		repaired := 0
		for _, h := range hs {
			stored, err := s.client.PutHStored(ctx, k, h, val, dht.PutIfNewer)
			switch {
			case err != nil:
				s.bump(func(st *Stats) { st.Errors++ })
			case stored:
				repaired++
			}
		}
		s.mu.Lock()
		s.stats.ReadRepairs += uint64(repaired)
		s.stats.Msgs += uint64(meter.Msgs)
		s.stats.Bytes += uint64(meter.Bytes)
		s.mu.Unlock()
	})
}

// bump applies one locked mutation to the stats.
func (s *Service) bump(fn func(*Stats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}
