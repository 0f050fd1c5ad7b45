// Package kts implements the paper's Key-based Timestamping Service
// (§4): distributed generation of monotonically increasing per-key
// timestamps using local counters at the peer responsible for
// rsp(k, hts).
//
// Monotonicity rests on counter initialization across responsibility
// changes:
//
//   - direct algorithm (§4.2.1): on graceful handoffs the substrate moves
//     the counters to the next responsible in O(1) messages (the service
//     registers a dht.Handover);
//   - indirect algorithm (§4.2.2): after failures — or always, in
//     ModeIndirect — the new responsible reconstructs the counter by
//     reading the replicas stored in the DHT and taking max(ts)+1, after
//     a grace delay that lets in-flight timestamps commit;
//   - recovery (§4.2.2): a restarted responsible ships its counters to
//     the current responsible, which corrects upward;
//   - periodic inspection (§4.2.2): the responsible re-reads replicas and
//     raises counters that initialization under-estimated.
package kts

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/obs"
)

// InitMode selects the counter initialization strategy — the UMS-Direct /
// UMS-Indirect axis of §5.
type InitMode int

const (
	// ModeDirect transfers counters on graceful handoffs and falls back
	// to the indirect algorithm when a counter never arrived (fail case,
	// or a brand-new key).
	ModeDirect InitMode = iota
	// ModeIndirect never transfers counters: every responsibility change
	// re-initializes from the replicas in the DHT.
	ModeIndirect
)

func (m InitMode) String() string {
	if m == ModeIndirect {
		return "indirect"
	}
	return "direct"
}

// Config tunes the service.
type Config struct {
	// Mode is the initialization strategy.
	Mode InitMode
	// GraceDelay is how long the indirect algorithm waits before reading
	// replicas, so timestamps granted by the previous responsible can be
	// committed (§4.2.2 "it waits a while"). Default 500ms; a negative
	// value means "no wait" (the zero value selects the default, so an
	// explicit zero wait needs its own spelling).
	GraceDelay time.Duration
	// InspectEvery enables periodic inspection with the given period;
	// zero disables it.
	InspectEvery time.Duration
	// InspectPerRound caps how many counters one inspection round
	// re-reads. Default 4.
	InspectPerRound int
	// RLU enables the Responsibility-Loss-Unaware fallback of §4.3: the
	// counter is discarded after every generated timestamp, so every
	// gen_ts pays an initialization. Only for DHTs that cannot detect
	// responsibility loss; Chord and CAN are RLA, so this exists as an
	// ablation.
	RLU bool
	// RPCTimeout is the service's per-call patience: a gen_ts/last_ts
	// round trip can legitimately take many ring RPCs of server-side
	// work, so it needs more slack than one protocol probe. A caller
	// context with a sooner deadline always wins; zero uses the
	// transport default.
	RPCTimeout time.Duration
	// LookupRetries is how often gen_ts/last_ts re-resolve the
	// responsible when it moved or died mid-call. Default 3.
	LookupRetries int
	// Persist, when non-nil, journals every counter mutation so a
	// restarted peer can ship its pre-crash counters back to the current
	// responsible (§4.2.2's recovery strategy). Typically the store.Store
	// backing the peer's replica store, so replicas and counters form one
	// recoverable unit. gen_ts refuses to acknowledge a timestamp whose
	// journal write failed — durable monotonicity over availability.
	Persist CounterLog
	// Obs receives timestamping metrics (grants, initializations, cache
	// hits/misses/age, journal write failures, live counter count). Nil
	// disables export; the metrics are still maintained but unregistered.
	Obs *obs.Registry
}

// CounterLog is the slice of a storage backing the service journals
// counters through; store.Store satisfies it.
type CounterLog interface {
	PutCounter(k core.Key, ts core.Timestamp) error
	DeleteCounter(k core.Key) error
}

func (c Config) withDefaults() Config {
	if c.GraceDelay == 0 {
		c.GraceDelay = 500 * time.Millisecond
	} else if c.GraceDelay < 0 {
		c.GraceDelay = 0
	}
	if c.InspectPerRound == 0 {
		c.InspectPerRound = 4
	}
	if c.LookupRetries == 0 {
		c.LookupRetries = 3
	}
	return c
}

// Service methods registered on the endpoint.
const (
	MethodGenTS       = "kts.GenTS"
	MethodLastTS      = "kts.LastTS"
	MethodGenTSBatch  = "kts.GenTSBatch"
	MethodLastTSBatch = "kts.LastTSBatch"
	MethodRecover     = "kts.Recover"
)

// GenTSReq asks the responsible of timestamping for a new timestamp —
// the TSR message of §4.1.1.
type GenTSReq struct{ Key core.Key }

// GenTSResp carries the generated timestamp plus the communication cost
// the responsible spent on the caller's behalf (indirect initialization).
type GenTSResp struct {
	TS   core.Timestamp
	Cost network.Meter
}

// LastTSReq asks for the last timestamp generated for a key.
type LastTSReq struct{ Key core.Key }

// LastTSResp carries the last timestamp (zero when the key has never
// been stamped) and the server-side cost.
type LastTSResp struct {
	TS   core.Timestamp
	Cost network.Meter
}

// BatchReq asks the responsible for timestamps (gen_ts) or last
// timestamps (last_ts) for a whole group of keys it serves — the
// one-round-per-replica-set fan-in behind PutMulti/GetMulti. The keys
// necessarily share a responsible at resolution time; ones that moved
// since come back with a per-key ErrNotResponsible so the caller
// re-resolves just those.
type BatchReq struct{ Keys []core.Key }

// WireSize charges the batch proportionally to its keys.
func (r BatchReq) WireSize() int {
	n := network.DefaultWireSize
	for _, k := range r.Keys {
		n += 8 + len(k)
	}
	return n
}

// BatchResp carries per-key outcomes, parallel to the request's Keys:
// Code[i] is empty on success (TS[i] valid) or a network error code.
type BatchResp struct {
	TS   []core.Timestamp
	Code []string
	Msg  []string
	Cost network.Meter
}

// WireSize charges the response proportionally to its entries.
func (r BatchResp) WireSize() int {
	n := network.DefaultWireSize + 24*len(r.TS)
	for i := range r.Code {
		n += len(r.Code[i]) + len(r.Msg[i])
	}
	return n
}

// CounterEntry is one (key, counter) pair moved by handover or recovery.
type CounterEntry struct {
	Key core.Key
	TS  core.Timestamp
}

// CounterBatch is the handover payload of the direct algorithm.
type CounterBatch struct{ Entries []CounterEntry }

// WireSize charges the batch against the bandwidth model.
func (b CounterBatch) WireSize() int {
	n := network.DefaultWireSize
	for _, e := range b.Entries {
		n += 24 + len(e.Key)
	}
	return n
}

// RecoverReq is the recovery strategy's message: a restarted former
// responsible ships the counters it held before failing.
type RecoverReq struct{ Entries []CounterEntry }

// RecoverResp reports how many counters the receiver corrected.
type RecoverResp struct{ Corrected int }

func init() {
	network.RegisterMessage(
		GenTSReq{}, GenTSResp{}, LastTSReq{}, LastTSResp{},
		BatchReq{}, BatchResp{},
		CounterBatch{}, RecoverReq{}, RecoverResp{},
	)
}

// RepairFunc is invoked when recovery or inspection raises a counter:
// UMS registers one to re-stamp the data stored under the stale
// timestamp (§4.2.2's "reinserts the data ... with the correct value").
type RepairFunc func(k core.Key, oldTS, newTS core.Timestamp)

// Service is the per-peer KTS instance.
type Service struct {
	ring   dht.Ring
	set    hashing.Set
	client *dht.Client // reads the replica namespace for indirect init
	route  *dht.Router // delivers gen_ts/last_ts/recover to rsp(k, hts)
	cfg    Config

	// mu guards vcs and the statistics (required on the TCP transport;
	// under simulation execution is already serialized).
	mu  sync.Mutex
	vcs *VCS

	// cache holds the last-ts answers this peer has observed as a
	// client (from its own gen_ts and last_ts calls), each with the
	// environment time it was observed at. It powers bounded-staleness
	// reads: a retrieve may accept a replica at or past a cached floor
	// whose age is within its bound, with no KTS round trip. It keeps
	// its own striped locks, decoupled from mu, so hot bounded reads
	// never contend with the server-side counter work.
	cache lastTSCache

	onRepair RepairFunc

	// statistics
	generated      uint64
	indirectInits  uint64
	directArrivals uint64
	cacheHits      atomic.Uint64

	metrics ktsMetrics
}

// lastTSCache is the client-side last-ts cache, striped by key hash:
// concurrent drivers consulting or refreshing floors for different keys
// proceed in parallel instead of serializing on the service mutex.
type lastTSCache struct {
	stripes [cacheStripes]cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[core.Key]cacheEntry
}

// cacheStripes is the cache's lock fan-out (a power of two).
const cacheStripes = 16

// shardOf picks a key's stripe by FNV-1a, independent of the ring
// hashes so cache contention does not correlate with replica placement.
func (c *lastTSCache) shardOf(k core.Key) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return &c.stripes[h&(cacheStripes-1)]
}

// get returns the entry for k, if any.
func (c *lastTSCache) get(k core.Key) (cacheEntry, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	e, ok := s.m[k]
	s.mu.Unlock()
	return e, ok
}

// note records an observation; newer timestamps win, equal ones refresh
// the age. Each stripe holds its share of the global cap.
func (c *lastTSCache) note(k core.Key, ts core.Timestamp, at time.Duration) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[core.Key]cacheEntry)
	}
	if e, ok := s.m[k]; ok {
		if ts.Less(e.ts) {
			return
		}
	} else if len(s.m) >= cacheCap/cacheStripes {
		// Only a genuinely new key can grow the stripe past its cap;
		// overwriting an existing entry never evicts a warm floor.
		for victim := range s.m {
			delete(s.m, victim)
			break
		}
	}
	s.m[k] = cacheEntry{ts: ts, at: at}
}

// ktsMetrics export the timestamping-side of the currency/cost trade:
// how often timestamps are granted, how counters get (re)initialized,
// how well the client-side last-ts cache serves bounded reads, and
// whether the durability journal ever refused a grant.
type ktsMetrics struct {
	grants         *obs.Counter
	indirectInits  *obs.Counter
	directArrivals *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheAge       *obs.Histogram
	journalFails   *obs.Counter
	recoveries     *obs.Counter
	genTSReqs      *obs.Counter
	lastTSReqs     *obs.Counter
}

func newKTSMetrics(r *obs.Registry) ktsMetrics {
	return ktsMetrics{
		grants: r.Counter("dcdht_kts_grants_total",
			"Timestamps granted by gen_ts on this responsible."),
		indirectInits: r.Counter("dcdht_kts_indirect_inits_total",
			"Counters initialized by reading replicas (Figure 5)."),
		directArrivals: r.Counter("dcdht_kts_direct_arrivals_total",
			"Counters received through direct handover batches."),
		cacheHits: r.Counter("dcdht_kts_cache_hits_total",
			"last-ts cache consults that found an entry."),
		cacheMisses: r.Counter("dcdht_kts_cache_misses_total",
			"last-ts cache consults that found nothing."),
		cacheAge: r.DurationHistogram("dcdht_kts_cache_age_seconds",
			"Age of last-ts cache entries at consult time."),
		journalFails: r.Counter("dcdht_kts_journal_failures_total",
			"Counter journal writes that failed (grants refused)."),
		recoveries: r.Counter("dcdht_kts_recover_corrections_total",
			"Counters corrected upward by the §4.2.2 recovery strategy."),
		genTSReqs: r.Counter("dcdht_kts_gents_requests_total",
			"Client-side gen_ts requests issued against the KTS tier."),
		lastTSReqs: r.Counter("dcdht_kts_lastts_requests_total",
			"Client-side last_ts requests issued against the KTS tier."),
	}
}

// cacheEntry is one observed last-ts with its observation time.
type cacheEntry struct {
	ts core.Timestamp
	at time.Duration
}

// cacheCap bounds the last-ts cache. Eviction order is arbitrary, so
// the cap is set far above any simulated working set — determinism is
// only at risk for clients tracking more than 64k hot keys per peer.
const cacheCap = 1 << 16

// New attaches a KTS service to a peer. replicaNS names the namespace in
// which UMS stores stamped replicas (indirect initialization reads it).
// If the ring supports handovers the service registers itself so
// counters travel with responsibility (the direct algorithm).
func New(ring dht.Ring, set hashing.Set, replicaNS string, cfg Config) *Service {
	s := &Service{
		ring:    ring,
		set:     set,
		client:  dht.NewClient(ring, replicaNS),
		cfg:     cfg.withDefaults(),
		vcs:     NewVCS(),
		metrics: newKTSMetrics(cfg.Obs),
	}
	// We may be the responsible ourselves: serve locally, free of charge.
	s.route = dht.NewRouter(ring, dht.RouteConfig{
		Retries: s.cfg.LookupRetries,
		Backoff: 200 * time.Millisecond,
		Timeout: s.cfg.RPCTimeout,
		Local:   s.serveLocal,
	})
	cfg.Obs.GaugeFunc("dcdht_kts_counters",
		"Valid counters currently held (cluster-wide under a shared registry).",
		func() float64 {
			if !s.ring.Alive() {
				return 0
			}
			return float64(s.VCSLen())
		})
	s.registerHandlers()
	if r, ok := ring.(dht.HandoverRegistrar); ok {
		r.RegisterHandover(s)
	}
	if s.cfg.InspectEvery > 0 {
		s.startInspection()
	}
	return s
}

// persistPut journals k's counter; callers hold s.mu. A nil journal is
// a no-op (volatile peers).
func (s *Service) persistPut(k core.Key, ts core.Timestamp) error {
	if s.cfg.Persist == nil {
		return nil
	}
	if err := s.cfg.Persist.PutCounter(k, ts); err != nil {
		return fmt.Errorf("kts: persist counter %q: %w", k, err)
	}
	return nil
}

// persistDelete journals a counter removal; callers hold s.mu. Removal
// failures are tolerated: a resurrected counter can only be too high,
// which never breaks monotonicity.
func (s *Service) persistDelete(k core.Key) {
	if s.cfg.Persist != nil {
		s.cfg.Persist.DeleteCounter(k)
	}
}

// SeedCounters installs counters recovered from a durable store,
// max-merged with anything already present. A restarted node calls this
// before serving, then runs RecoverTo so the counters also reach
// whoever is responsible now.
func (s *Service) SeedCounters(entries []CounterEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if cur, ok := s.vcs.Get(e.Key); !ok || cur.Less(e.TS) {
			s.vcs.Put(e.Key, e.TS)
		}
	}
}

// SetRepair installs the repair callback (UMS wires itself in).
func (s *Service) SetRepair(fn RepairFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onRepair = fn
}

// VCSLen reports the number of valid counters held (tests, stats).
func (s *Service) VCSLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vcs.Len()
}

// Stats reports service counters.
func (s *Service) Stats() (generated, indirectInits, directArrivals uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generated, s.indirectInits, s.directArrivals
}

// Cached returns the freshest last-ts this peer has observed for k as a
// client, together with the observation's age. ok is false when the
// peer has never seen a timestamp for k. The caller decides whether the
// age is acceptable (bounded-staleness reads compare it to their
// bound); a successful consult counts as a cache hit.
func (s *Service) Cached(k core.Key) (ts core.Timestamp, age time.Duration, ok bool) {
	e, ok := s.cache.get(k)
	if !ok {
		s.metrics.cacheMisses.Inc()
		return core.TSZero, 0, false
	}
	s.cacheHits.Add(1)
	// Read the clock after the entry, not before: an entry stamped by a
	// concurrent noteLastTS between the two would show a negative age.
	age = max(0, s.ring.Env().Now()-e.at)
	s.metrics.cacheHits.Inc()
	s.metrics.cacheAge.Observe(age)
	return e.ts, age, true
}

// CacheHits reports how many Cached consults found an entry.
func (s *Service) CacheHits() uint64 {
	return s.cacheHits.Load()
}

// noteLastTS records an observed last-ts for k at the current
// environment time. Newer observations win; an equal timestamp
// refreshes the entry's age (the authority re-confirmed it).
func (s *Service) noteLastTS(k core.Key, ts core.Timestamp) {
	if ts.IsZero() {
		return
	}
	s.cache.note(k, ts, s.ring.Env().Now())
}

// ---- client-side operations -------------------------------------------

// GenTS generates the next timestamp for k: it locates rsp(k, hts) and
// sends it a timestamp request. This is the paper's KTS.gen_ts(k). The
// context bounds the call and carries the operation's meter.
func (s *Service) GenTS(ctx context.Context, k core.Key) (core.Timestamp, error) {
	s.metrics.genTSReqs.Inc()
	resp, err := s.route.Call(ctx, s.set.HTS.ID(k), MethodGenTS, GenTSReq{Key: k})
	if err != nil {
		return core.TSZero, fmt.Errorf("kts: gen_ts(%q): %w", k, err)
	}
	r := resp.(GenTSResp)
	network.MeterFrom(ctx).Merge(r.Cost)
	// A freshly generated timestamp IS the key's last_ts at this
	// moment: cache it so the writer's subsequent bounded reads (and
	// read-your-writes through a session) skip the KTS round trip.
	s.noteLastTS(k, r.TS)
	return r.TS, nil
}

// LastTS returns the last timestamp generated for k (zero when none) —
// the paper's KTS.last_ts(k).
func (s *Service) LastTS(ctx context.Context, k core.Key) (core.Timestamp, error) {
	s.metrics.lastTSReqs.Inc()
	resp, err := s.route.Call(ctx, s.set.HTS.ID(k), MethodLastTS, LastTSReq{Key: k})
	if err != nil {
		return core.TSZero, fmt.Errorf("kts: last_ts(%q): %w", k, err)
	}
	r := resp.(LastTSResp)
	network.MeterFrom(ctx).Merge(r.Cost)
	s.noteLastTS(k, r.TS)
	return r.TS, nil
}

// GenTSBatch generates timestamps for many keys in one KTS round per
// responsible: keys are grouped by rsp(k, hts) and each group travels as
// a single gen_ts batch message instead of |keys| independent round
// trips. Outcomes are per key (out[i], errs[i] parallel to keys); keys
// whose responsible moved or died mid-call are retried individually like
// the single-key path. This is PutMulti's fan-in.
func (s *Service) GenTSBatch(ctx context.Context, keys []core.Key) ([]core.Timestamp, []error) {
	s.metrics.genTSReqs.Add(uint64(len(keys)))
	out, errs := s.batchCall(ctx, MethodGenTSBatch, keys)
	for i, k := range keys {
		if errs[i] == nil {
			// A freshly generated timestamp IS the key's last_ts.
			s.noteLastTS(k, out[i])
		} else {
			errs[i] = fmt.Errorf("kts: gen_ts(%q): %w", k, errs[i])
		}
	}
	return out, errs
}

// LastTSBatch fetches last timestamps for many keys in one KTS round per
// responsible — GetMulti's fan-in. Outcomes are per key; a zero
// timestamp with a nil error means the key was never stamped.
func (s *Service) LastTSBatch(ctx context.Context, keys []core.Key) ([]core.Timestamp, []error) {
	s.metrics.lastTSReqs.Add(uint64(len(keys)))
	out, errs := s.batchCall(ctx, MethodLastTSBatch, keys)
	for i, k := range keys {
		if errs[i] == nil {
			s.noteLastTS(k, out[i])
		} else {
			errs[i] = fmt.Errorf("kts: last_ts(%q): %w", k, errs[i])
		}
	}
	return out, errs
}

// batchCall is the grouped analogue of the single-key call: the router
// groups the keys by responsible and each group travels as one RPC —
// the local group is served free of charge. Outcomes are per key.
func (s *Service) batchCall(ctx context.Context, method string, keys []core.Key) ([]core.Timestamp, []error) {
	out := make([]core.Timestamp, len(keys))
	ids := make([]core.ID, len(keys))
	for i, k := range keys {
		ids[i] = s.set.HTS.ID(k)
	}
	errs := s.route.CallEach(ctx, ids, func(ref dht.NodeRef, idx []int) []error {
		errs := make([]error, len(idx))
		req := BatchReq{Keys: make([]core.Key, len(idx))}
		for j, i := range idx {
			req.Keys[j] = keys[i]
		}
		resp, err := s.route.Send(ctx, ref, method, req)
		if err != nil {
			// The whole group shares the transport outcome.
			for j := range errs {
				errs[j] = err
			}
			return errs
		}
		r := resp.(BatchResp)
		network.MeterFrom(ctx).Merge(r.Cost)
		for j, i := range idx {
			if errs[j] = network.DecodeError(r.Code[j], r.Msg[j]); errs[j] == nil {
				out[i] = r.TS[j]
			}
		}
		return errs
	})
	return out, errs
}

func (s *Service) serveLocal(method string, req network.Message) (network.Message, error) {
	switch method {
	case MethodGenTS:
		return s.handleGenTS(req.(GenTSReq))
	case MethodLastTS:
		return s.handleLastTS(req.(LastTSReq))
	case MethodGenTSBatch:
		return s.handleBatch(req.(BatchReq), true), nil
	case MethodLastTSBatch:
		return s.handleBatch(req.(BatchReq), false), nil
	case MethodRecover:
		return s.handleRecover(req.(RecoverReq))
	default:
		return nil, fmt.Errorf("kts: unknown local method %q", method)
	}
}

// ---- server-side handlers ----------------------------------------------

func (s *Service) registerHandlers() {
	ep := s.ring.Endpoint()
	ep.Handle(MethodGenTS, func(_ network.Addr, req network.Message) (network.Message, error) {
		return s.handleGenTS(req.(GenTSReq))
	})
	ep.Handle(MethodLastTS, func(_ network.Addr, req network.Message) (network.Message, error) {
		return s.handleLastTS(req.(LastTSReq))
	})
	ep.Handle(MethodGenTSBatch, func(_ network.Addr, req network.Message) (network.Message, error) {
		return s.handleBatch(req.(BatchReq), true), nil
	})
	ep.Handle(MethodLastTSBatch, func(_ network.Addr, req network.Message) (network.Message, error) {
		return s.handleBatch(req.(BatchReq), false), nil
	})
	ep.Handle(MethodRecover, func(_ network.Addr, req network.Message) (network.Message, error) {
		return s.handleRecover(req.(RecoverReq))
	})
}

// handleBatch serves a grouped gen_ts/last_ts request: each key runs the
// ordinary single-key handler concurrently (so indirect initializations
// overlap their grace delays exactly as independent requests would) and
// lands its outcome in the response slot matching the request's order.
// Per-key failures — above all ErrNotResponsible for keys that moved
// since the caller resolved — travel back as error codes, never failing
// the keys this peer still serves.
func (s *Service) handleBatch(req BatchReq, gen bool) BatchResp {
	n := len(req.Keys)
	resp := BatchResp{
		TS:   make([]core.Timestamp, n),
		Code: make([]string, n),
		Msg:  make([]string, n),
	}
	costs := make([]network.Meter, n)
	joinErr := s.ring.Env().Join(n, func(i int) {
		var r network.Message
		var err error
		if gen {
			r, err = s.handleGenTS(GenTSReq{Key: req.Keys[i]})
		} else {
			r, err = s.handleLastTS(LastTSReq{Key: req.Keys[i]})
		}
		if err != nil {
			resp.Code[i], resp.Msg[i] = network.EncodeError(err)
			return
		}
		if gen {
			g := r.(GenTSResp)
			resp.TS[i], costs[i] = g.TS, g.Cost
		} else {
			l := r.(LastTSResp)
			resp.TS[i], costs[i] = l.TS, l.Cost
		}
	})
	if joinErr != nil {
		// The environment shut down mid-batch: fail the slots that never
		// produced an outcome.
		for i := range resp.Code {
			if resp.Code[i] == "" && resp.TS[i].IsZero() {
				resp.Code[i], resp.Msg[i] = network.EncodeError(joinErr)
			}
		}
	}
	for _, c := range costs {
		resp.Cost.Merge(c)
	}
	return resp
}

// handleGenTS implements Figure 4: ensure the counter exists (initialize
// if not), increment, return.
func (s *Service) handleGenTS(req GenTSReq) (network.Message, error) {
	k := req.Key
	if err := s.checkResponsible(k); err != nil {
		return nil, err
	}
	var cost network.Meter
	c, err := s.ensureCounter(network.WithMeter(context.Background(), &cost), k)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	// Re-read under the lock: a concurrent gen_ts or an arriving direct
	// handover may have advanced the counter while we initialized.
	if cur, ok := s.vcs.Get(k); ok && c.Less(cur) {
		c = cur
	}
	next := c.Next()
	s.vcs.Put(k, next)
	perr := s.persistPut(k, next)
	s.generated++
	if s.cfg.RLU {
		// RLU strategy (§4.3): assume responsibility is lost after every
		// generation, so remove the counter (the next gen_ts must
		// re-initialize).
		s.vcs.Delete(k)
		s.persistDelete(k)
	}
	s.mu.Unlock()
	if perr != nil {
		// The in-memory counter already advanced (safe — gaps never break
		// monotonicity) but the journal missed the grant: refuse to hand
		// out a timestamp that would not survive our own restart.
		s.metrics.journalFails.Inc()
		return nil, perr
	}
	s.metrics.grants.Inc()
	return GenTSResp{TS: next, Cost: cost}, nil
}

// handleLastTS implements last_ts: like gen_ts but without incrementing.
func (s *Service) handleLastTS(req LastTSReq) (network.Message, error) {
	k := req.Key
	if err := s.checkResponsible(k); err != nil {
		return nil, err
	}
	var cost network.Meter
	c, err := s.ensureCounter(network.WithMeter(context.Background(), &cost), k)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if cur, ok := s.vcs.Get(k); ok && c.Less(cur) {
		c = cur
	}
	s.mu.Unlock()
	return LastTSResp{TS: c, Cost: cost}, nil
}

// handleRecover implements the recovery strategy: correct counters upward
// from a restarted responsible's snapshot and trigger repairs for data
// stamped with under-estimated counters. Like gen_ts and last_ts it
// refuses keys this peer is not responsible for — a counter adopted by
// a bystander would pass for valid if the key ever moved there.
func (s *Service) handleRecover(req RecoverReq) (network.Message, error) {
	for _, e := range req.Entries {
		if err := s.checkResponsible(e.Key); err != nil {
			return nil, err
		}
	}
	corrected := 0
	type repairJob struct {
		key          core.Key
		oldTS, newTS core.Timestamp
	}
	var repairs []repairJob
	s.mu.Lock()
	repair := s.onRepair
	for _, e := range req.Entries {
		cur, ok := s.vcs.Get(e.Key)
		if !ok {
			// We have not touched this key yet; adopt the snapshot.
			s.vcs.Put(e.Key, e.TS)
			s.persistPut(e.Key, e.TS)
			corrected++
			continue
		}
		if cur.Less(e.TS) {
			// We initialized too low and may have issued duplicate-range
			// timestamps; jump past the snapshot and repair stored data.
			fixed := e.TS.Max(cur.Add(1))
			s.vcs.Put(e.Key, fixed)
			s.persistPut(e.Key, fixed)
			repairs = append(repairs, repairJob{key: e.Key, oldTS: cur, newTS: fixed})
			corrected++
		}
	}
	s.mu.Unlock()
	s.metrics.recoveries.Add(uint64(corrected))
	if repair != nil {
		for _, r := range repairs {
			repair(r.key, r.oldTS, r.newTS)
		}
	}
	return RecoverResp{Corrected: corrected}, nil
}

// checkResponsible rejects requests for keys whose hts position this
// peer does not own (a stale lookup routed here).
func (s *Service) checkResponsible(k core.Key) error {
	if !s.ring.Alive() {
		return core.ErrStopped
	}
	if !s.ring.OwnsID(s.set.HTS.ID(k)) {
		return fmt.Errorf("kts: %s does not own hts(%q): %w", s.ring.Self().ID, k, core.ErrNotResponsible)
	}
	return nil
}

// ensureCounter returns the counter for k, initializing it if absent.
// Initialization is the indirect algorithm (Figure 5); in ModeDirect it
// only runs when no transferred counter arrived (failure of the previous
// responsible, or a brand-new key — indistinguishable cases). The
// server-side communication cost lands on the meter ctx carries, so it
// can be reported back to the requesting peer.
func (s *Service) ensureCounter(ctx context.Context, k core.Key) (core.Timestamp, error) {
	s.mu.Lock()
	if ts, ok := s.vcs.Get(k); ok {
		s.mu.Unlock()
		return ts, nil
	}
	s.mu.Unlock()

	init, err := s.indirectInit(ctx, k)
	if err != nil {
		return core.TSZero, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.vcs.Get(k); ok {
		// Lost a race with a concurrent initialization or an arriving
		// handover; keep the larger value.
		init = init.Max(cur)
	}
	s.vcs.Put(k, init)
	if err := s.persistPut(k, init); err != nil {
		s.metrics.journalFails.Inc()
		return core.TSZero, err
	}
	s.indirectInits++
	s.metrics.indirectInits.Inc()
	return init, nil
}

// indirectInit is Figure 5: wait the grace delay, read the replica
// stored at rsp(k, h) for every h ∈ Hr, and return max(ts)+1 — or zero
// when no replica exists anywhere (a never-stamped key).
//
// The |Hr| reads are issued concurrently: the paper prices the algorithm
// in messages (O(|Hr|·cret), unchanged here) and reports only a slight
// response-time impact of the replication factor on UMS-Indirect
// (Figure 9), which matches concurrent reads, not a sequential walk.
func (s *Service) indirectInit(ctx context.Context, k core.Key) (core.Timestamp, error) {
	env := s.ring.Env()
	if s.cfg.GraceDelay > 0 {
		if err := env.Sleep(s.cfg.GraceDelay); err != nil {
			return core.TSZero, err
		}
	}
	type probe struct {
		val   core.Value
		err   error
		meter network.Meter
	}
	results := make([]probe, len(s.set.Hr))
	err := env.Join(len(s.set.Hr), func(i int) {
		var p probe
		p.val, p.err = s.client.GetH(network.WithMeter(ctx, &p.meter), k, s.set.Hr[i])
		results[i] = p
	})
	if err != nil {
		return core.TSZero, err
	}
	cost := network.MeterFrom(ctx)
	tsm := core.TSZero
	found := false
	for _, p := range results {
		cost.Merge(p.meter)
		if p.err != nil {
			continue // unavailable or missing replica: skip (Figure 5 keeps going)
		}
		found = true
		tsm = tsm.Max(p.val.TS)
	}
	if !found {
		return core.TSZero, nil
	}
	return tsm.Next(), nil
}

// ---- handover (direct algorithm) ---------------------------------------

// Name implements dht.Handover.
func (s *Service) Name() string { return "kts" }

// Collect implements dht.Handover: remove counters for ceded hts
// positions (VCS rule 3). In ModeDirect the removed counters are shipped
// to the next responsible; in ModeIndirect they are simply dropped, so
// the next responsible re-initializes from replicas.
func (s *Service) Collect(ceded func(core.ID) bool) network.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	var batch CounterBatch
	var doomed []core.Key
	s.vcs.Each(func(k core.Key, ts core.Timestamp) bool {
		if ceded(s.set.HTS.ID(k)) {
			doomed = append(doomed, k)
			batch.Entries = append(batch.Entries, CounterEntry{Key: k, TS: ts})
		}
		return true
	})
	for _, k := range doomed {
		s.vcs.Delete(k)
		s.persistDelete(k)
	}
	if s.cfg.Mode == ModeIndirect || len(batch.Entries) == 0 {
		return nil
	}
	return batch
}

// Accept implements dht.Handover: install transferred counters,
// max-merged with anything already present.
func (s *Service) Accept(msg network.Message) {
	batch, ok := msg.(CounterBatch)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Mode == ModeIndirect {
		return
	}
	for _, e := range batch.Entries {
		if cur, ok := s.vcs.Get(e.Key); !ok || cur.Less(e.TS) {
			s.vcs.Put(e.Key, e.TS)
			s.persistPut(e.Key, e.TS)
		}
	}
	s.directArrivals += uint64(len(batch.Entries))
	s.metrics.directArrivals.Add(uint64(len(batch.Entries)))
}

// RecoverTo sends this peer's counters to the current responsible(s) —
// the recovery strategy run by a restarted peer. Each counter is routed
// to rsp(k, hts) at call time.
func (s *Service) RecoverTo(ctx context.Context) (corrected int, err error) {
	s.mu.Lock()
	entries := make([]CounterEntry, 0, s.vcs.Len())
	s.vcs.Each(func(k core.Key, ts core.Timestamp) bool {
		entries = append(entries, CounterEntry{Key: k, TS: ts})
		return true
	})
	s.mu.Unlock()
	for _, e := range entries {
		resp, cerr := s.route.Call(ctx, s.set.HTS.ID(e.Key), MethodRecover, RecoverReq{Entries: []CounterEntry{e}})
		if cerr != nil {
			err = cerr
			continue
		}
		corrected += resp.(RecoverResp).Corrected
	}
	return corrected, err
}

// ---- periodic inspection ------------------------------------------------

// startInspection launches the periodic inspection task: each round it
// re-reads the replicas for a few held counters and corrects counters
// that are lower than the highest stored timestamp.
func (s *Service) startInspection() {
	env := s.ring.Env()
	rng := env.Rand("kts-inspect:" + string(s.ring.Self().Addr))
	// One pick stream for the whole loop: re-deriving it per round would
	// replay the same sequence and pin every round to the same start.
	pick := env.Rand("kts-inspect-pick:" + string(s.ring.Self().Addr))
	env.Go(func() {
		for s.ring.Alive() {
			if err := env.Sleep(s.cfg.InspectEvery + time.Duration(rng.Int63n(int64(s.cfg.InspectEvery)/4+1))); err != nil {
				return
			}
			if !s.ring.Alive() {
				return
			}
			s.inspectOnce(pick)
		}
	})
}

// inspectOnce checks up to InspectPerRound counters against the DHT.
func (s *Service) inspectOnce(rng interface{ Intn(int) int }) {
	s.mu.Lock()
	keys := s.vcs.Keys()
	repair := s.onRepair
	s.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	limit := s.cfg.InspectPerRound
	if limit > len(keys) {
		limit = len(keys)
	}
	start := rng.Intn(len(keys))
	for i := 0; i < limit; i++ {
		k := keys[(start+i)%len(keys)]
		if !s.ring.OwnsID(s.set.HTS.ID(k)) {
			continue
		}
		highest := core.TSZero
		for _, h := range s.set.Hr {
			if val, err := s.client.GetH(context.Background(), k, h); err == nil {
				highest = highest.Max(val.TS)
			}
		}
		s.mu.Lock()
		cur, ok := s.vcs.Get(k)
		corrected := false
		if ok && cur.Less(highest) {
			s.vcs.Put(k, highest)
			s.persistPut(k, highest)
			corrected = true
		}
		s.mu.Unlock()
		if corrected && repair != nil {
			repair(k, cur, highest)
		}
	}
}
