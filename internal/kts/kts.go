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
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/store"
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
	// GraceDelay is how long the indirect algorithm lets timestamps
	// granted by the previous responsible commit before it reads replicas
	// (§4.2.2 "it waits a while"), measured from the last change to the
	// peer's arc: an initialization waits only what is left of it, and
	// one on an arc held longer reads at once. RLU, and a ring with no
	// steady arc, wait it in full. Default 500ms; a negative value means
	// "no wait" (the zero value selects the default, so an explicit zero
	// wait needs its own spelling).
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
}

// lookupRetries is how often gen_ts/last_ts re-resolve the responsible
// when it moved or died mid-call.
const lookupRetries = 3

func (c Config) withDefaults() Config {
	if c.GraceDelay == 0 {
		c.GraceDelay = 500 * time.Millisecond
	} else if c.GraceDelay < 0 {
		c.GraceDelay = 0
	}
	if c.InspectPerRound == 0 {
		c.InspectPerRound = 4
	}
	return c
}

// Service methods registered on the endpoint.
const (
	MethodGenTS   = "kts.GenTS"
	MethodLastTS  = "kts.LastTS"
	MethodRecover = "kts.Recover"
)

// GenTSReq asks the responsible of timestamping for a new timestamp —
// the TSR message of §4.1.1. Hr names the key's replica positions
// (indexes into the set's Hr) the issuer guesses the responsible owns:
// once the timestamp is granted and journalled, the responsible stores
// Data stamped with it at each of them, so those writes ride on the
// gen_ts round trip (a fused gen_ts). Data travels only with Hr.
type GenTSReq struct {
	Key  core.Key
	Data []byte
	Hr   []int
}

// WireSize charges the value and the named positions; a request that
// names none is a plain TSR message.
func (r GenTSReq) WireSize() int {
	if len(r.Hr) == 0 {
		return network.DefaultWireSize
	}
	return network.DefaultWireSize + len(r.Data) + len(r.Hr)
}

// GenTSResp carries the generated timestamp plus the communication cost
// the responsible spent on the caller's behalf (indirect initialization),
// and, parallel to the request's Hr, each named position's outcome:
// Code[j] is empty when the position was served (Stored[j] then says
// whether PutIfNewer kept the value) or the network error code of its
// refusal.
type GenTSResp struct {
	TS     core.Timestamp
	Cost   network.Meter
	Stored []bool
	Code   []string
	Msg    []string
}

// WireSize charges the per-position outcomes; a reply to a request that
// named none is a plain message.
func (r GenTSResp) WireSize() int {
	return network.DefaultWireSize + len(r.Stored) + codesSize(r.Code, r.Msg)
}

// LastTSReq asks for the last timestamp generated for a key. Hr names
// the replica positions the issuer guesses the responsible owns: it
// reads its counter, then each of those replicas, and returns them with
// the timestamp (a fused last_ts).
type LastTSReq struct {
	Key core.Key
	Hr  []int
}

// WireSize charges the named positions.
func (r LastTSReq) WireSize() int { return network.DefaultWireSize + len(r.Hr) }

// LastTSResp carries the last timestamp (zero when the key has never
// been stamped) and the server-side cost, and, parallel to the
// request's Hr, each named position's replica: Code[j] is empty when
// Vals[j] was read there, else the network error code of the read.
type LastTSResp struct {
	TS   core.Timestamp
	Cost network.Meter
	Vals []core.Value
	Code []string
	Msg  []string
}

// WireSize charges the replicas' bytes and the outcomes.
func (r LastTSResp) WireSize() int {
	n := network.DefaultWireSize + codesSize(r.Code, r.Msg)
	for _, v := range r.Vals {
		n += len(v.Data)
	}
	return n
}

// codesSize is the bytes of a reply's per-item error codes.
func codesSize(codes, msgs []string) (n int) {
	for _, c := range codes {
		n += len(c)
	}
	for _, m := range msgs {
		n += len(m)
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

	// replicas is the peer's own store method table (dht.RegisterStore),
	// through which a fused gen_ts or last_ts serves the replica
	// positions it names; nil when the peer hosts no store.
	replicas map[string]network.HandlerFunc

	// vcs is the Valid Counters Set of §4.1.2, kept in the peer's store
	// next to its replicas, so the two form one recoverable unit: on a
	// durable store a restarted peer resumes its counters and ships them
	// to the current responsible (§4.2.2's recovery strategy). gen_ts
	// refuses to acknowledge a timestamp the store failed to record —
	// durable monotonicity over availability. mu covers every counter
	// read and read-modify-write, so no last_ts sees a grant before the
	// store has recorded it (the store's own lock covers single calls
	// only).
	mu  sync.Mutex
	vcs *store.Store

	// cache holds the last-ts answers this peer has observed as a
	// client (from its own gen_ts and last_ts calls), each with the
	// environment time it was observed at. It powers bounded-staleness
	// reads: a retrieve may accept a replica at or past a cached floor
	// whose age is within its bound, with no KTS round trip. It keeps
	// its own lock, decoupled from mu, so hot bounded reads never
	// contend with the server-side counter work.
	cache dht.LastTSCache

	onRepair RepairFunc

	// Per-peer counts, read by Stats and exported to the ring's
	// registry at scrape time (a shared registry sums the peers).
	grants         atomic.Uint64
	indirectInits  atomic.Uint64
	directArrivals atomic.Uint64
	cacheHits      atomic.Uint64

	metrics ktsMetrics
}

// ktsMetrics export the rest of the timestamping side of the
// currency/cost trade: cache misses, whether the store ever refused a
// grant, and client-side request counts.
type ktsMetrics struct {
	cacheMisses  *obs.Counter
	journalFails *obs.Counter
	genTSReqs    *obs.Counter
	lastTSReqs   *obs.Counter
}

func newKTSMetrics(r *obs.Registry) ktsMetrics {
	return ktsMetrics{
		cacheMisses: r.Counter("dcdht_kts_cache_misses_total",
			"last-ts cache consults that found nothing."),
		journalFails: r.Counter("dcdht_kts_journal_failures_total",
			"Counter journal writes that failed (grants refused)."),
		genTSReqs: r.Counter("dcdht_kts_gents_requests_total",
			"Client-side gen_ts requests issued against the KTS tier."),
		lastTSReqs: r.Counter("dcdht_kts_lastts_requests_total",
			"Client-side last_ts requests issued against the KTS tier."),
	}
}

// New attaches a KTS service to a peer. replicaNS names the namespace in
// which UMS stores stamped replicas (indirect initialization reads it).
// The counters live in the ring's replica store backing when the ring
// has one, and in a fresh volatile store otherwise; whatever counters
// that backing already holds (a restart on a durable store) are the
// service's from the start. If the ring supports handovers the service
// registers itself so counters travel with responsibility (the direct
// algorithm). Its metrics land in the ring's registry.
func New(ring dht.Ring, set hashing.Set, replicaNS string, cfg Config) *Service {
	s := &Service{
		ring:    ring,
		set:     set,
		client:  dht.NewClient(ring, replicaNS),
		cfg:     cfg.withDefaults(),
		metrics: newKTSMetrics(ring.Obs()),
	}
	if r, ok := ring.(interface{ Store() *dht.LocalStore }); ok {
		s.vcs = r.Store().Backing()
	} else {
		s.vcs = store.NewMem()
	}
	if r, ok := ring.(interface {
		StoreHandlers() map[string]network.HandlerFunc
	}); ok {
		s.replicas = r.StoreHandlers()
	}
	handlers := s.handlers()
	// We may be the responsible ourselves: the router serves the same
	// table locally, free of charge.
	s.route = dht.NewRouter(ring, dht.RouteConfig{
		Retries: lookupRetries,
		Backoff: 200 * time.Millisecond,
		Timeout: s.cfg.RPCTimeout,
		Local:   handlers,
	})
	reg := ring.Obs()
	reg.GaugeFunc("dcdht_kts_counters",
		"Valid counters currently held (cluster-wide under a shared registry).",
		func() float64 {
			if !s.ring.Alive() {
				return 0
			}
			return float64(s.VCSLen())
		})
	count := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.CounterFunc("dcdht_kts_grants_total",
		"Timestamps granted by gen_ts on this responsible.", count(&s.grants))
	reg.CounterFunc("dcdht_kts_indirect_inits_total",
		"Counters initialized by reading replicas (Figure 5).", count(&s.indirectInits))
	reg.CounterFunc("dcdht_kts_direct_arrivals_total",
		"Counters received through direct handover batches.", count(&s.directArrivals))
	reg.CounterFunc("dcdht_kts_cache_hits_total",
		"last-ts cache consults that found an entry.", count(&s.cacheHits))
	for method, h := range handlers {
		ring.Endpoint().Handle(method, h)
	}
	if r, ok := ring.(dht.HandoverRegistrar); ok {
		r.RegisterHandover(s)
	}
	if s.cfg.InspectEvery > 0 {
		s.startInspection()
	}
	return s
}

// putCounter records k's counter; callers hold s.mu.
func (s *Service) putCounter(k core.Key, ts core.Timestamp) error {
	if err := s.vcs.PutCounter(k, ts); err != nil {
		return fmt.Errorf("kts: persist counter %q: %w", k, err)
	}
	return nil
}

// counters returns the VCS in key order, so the handover batch, a
// recovery and an inspection round see the counters in the same order
// on every replay.
func (s *Service) counters() []store.Counter {
	cs := s.vcs.Counters()
	slices.SortFunc(cs, func(a, b store.Counter) int { return cmp.Compare(a.Key, b.Key) })
	return cs
}

// SetRepair installs the repair callback (UMS wires itself in).
func (s *Service) SetRepair(fn RepairFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onRepair = fn
}

// VCSLen reports the number of valid counters held (tests, stats).
func (s *Service) VCSLen() int { return len(s.vcs.Counters()) }

// Stats reports service counters.
func (s *Service) Stats() (grants, indirectInits, directArrivals uint64) {
	return s.grants.Load(), s.indirectInits.Load(), s.directArrivals.Load()
}

// Cached returns the freshest last-ts this peer has observed for k as a
// client, together with the observation's age. ok is false when the
// peer has never seen a timestamp for k. The caller decides whether the
// age is acceptable (bounded-staleness reads compare it to their
// bound); a successful consult counts as a cache hit.
func (s *Service) Cached(k core.Key) (ts core.Timestamp, age time.Duration, ok bool) {
	ts, age, ok = s.cache.Get(k, s.ring.Env().Now)
	if !ok {
		s.metrics.cacheMisses.Inc()
		return core.TSZero, 0, false
	}
	s.cacheHits.Add(1)
	return ts, age, true
}

// noteLastTS records an observed last-ts for k at the current
// environment time. Newer observations win; an equal timestamp
// refreshes the entry's age (the authority re-confirmed it).
func (s *Service) noteLastTS(k core.Key, ts core.Timestamp) {
	s.cache.Note(k, ts, s.ring.Env().Now())
}

// ---- client-side operations -------------------------------------------

// GenTS generates the next timestamp for k: it locates rsp(k, hts) and
// sends it a timestamp request. This is the paper's KTS.gen_ts(k). The
// context bounds the call and carries the operation's meter.
func (s *Service) GenTS(ctx context.Context, k core.Key) (core.Timestamp, error) {
	ts, _, err := s.GenTSStore(ctx, k, nil, nil)
	return ts, err
}

// Served is what rsp(k, hts) did at the replica positions a fused
// gen_ts or last_ts named, each slice parallel to them. Errs[j] is nil
// when the position was served: Vals[j] is then the replica a last_ts
// read there, Stored[j] whether a gen_ts's PutIfNewer kept the value.
// A reply that does not answer every position fails each with
// core.ErrUnreachable.
type Served struct {
	Errs   []error
	Vals   []core.Value
	Stored []bool
}

// GenTSStore is GenTS fused with the writes of data to the Hr positions
// at (indexes into the set's Hr) that the caller guesses rsp(k, hts)
// owns: that peer grants and journals the timestamp, then stores
// {data, ts} at each of them it does own, in the same round trip. A
// position it refuses, or a reply that does not answer it, is the
// caller's to write the ordinary way.
func (s *Service) GenTSStore(ctx context.Context, k core.Key, data []byte, at []int) (core.Timestamp, Served, error) {
	s.metrics.genTSReqs.Inc()
	req := GenTSReq{Key: k}
	if len(at) > 0 {
		req.Data, req.Hr = data, at
	}
	r, err := network.Reply[GenTSResp](s.route.Call(ctx, s.set.HTS.ID(k), MethodGenTS, req))
	if err != nil {
		return core.TSZero, Served{}, fmt.Errorf("kts: gen_ts(%q): %w", k, err)
	}
	network.MeterFrom(ctx).Merge(r.Cost)
	// A freshly generated timestamp IS the key's last_ts at this
	// moment: cache it so the writer's subsequent bounded reads (and
	// read-your-writes through a session) skip the KTS round trip.
	s.noteLastTS(k, r.TS)
	var sv Served
	if len(at) > 0 {
		sv.Errs, _ = network.DecodeBatch(len(at), nil, len(r.Stored), r.Code, r.Msg)
		sv.Stored = make([]bool, len(at))
		for j, err := range sv.Errs {
			sv.Stored[j] = err == nil && r.Stored[j]
		}
	}
	return r.TS, sv, nil
}

// LastTS returns the last timestamp generated for k (zero when none) —
// the paper's KTS.last_ts(k).
func (s *Service) LastTS(ctx context.Context, k core.Key) (core.Timestamp, error) {
	ts, _, err := s.LastTSRead(ctx, k, nil)
	return ts, err
}

// LastTSRead is LastTS fused with the reads of the Hr positions at
// (indexes into the set's Hr) that the caller guesses rsp(k, hts) owns:
// that peer reads its counter, then each of those replicas it does own,
// and returns them with the timestamp in the same round trip.
func (s *Service) LastTSRead(ctx context.Context, k core.Key, at []int) (core.Timestamp, Served, error) {
	s.metrics.lastTSReqs.Inc()
	r, err := network.Reply[LastTSResp](s.route.Call(ctx, s.set.HTS.ID(k), MethodLastTS, LastTSReq{Key: k, Hr: at}))
	if err != nil {
		return core.TSZero, Served{}, fmt.Errorf("kts: last_ts(%q): %w", k, err)
	}
	network.MeterFrom(ctx).Merge(r.Cost)
	s.noteLastTS(k, r.TS)
	var sv Served
	if len(at) > 0 {
		sv.Errs, _ = network.DecodeBatch(len(at), nil, len(r.Vals), r.Code, r.Msg)
		sv.Vals = make([]core.Value, len(at))
		for j, err := range sv.Errs {
			if err == nil {
				sv.Vals[j] = r.Vals[j]
			}
		}
	}
	return r.TS, sv, nil
}

// ---- server-side handlers ----------------------------------------------

// handlers is the service's one method table: the endpoint serves it to
// other peers, and the router's Local path to this one, free of charge.
func (s *Service) handlers() map[string]network.HandlerFunc {
	return map[string]network.HandlerFunc{
		MethodGenTS:   network.Typed(s.handleGenTS),
		MethodLastTS:  network.Typed(s.handleLastTS),
		MethodRecover: network.Typed(s.handleRecover),
	}
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
	if cur, ok := s.vcs.GetCounter(k); ok && c.Less(cur) {
		c = cur
	}
	next := c.Next()
	perr := s.putCounter(k, next)
	if s.cfg.RLU {
		// RLU strategy (§4.3): assume responsibility is lost after every
		// generation, so remove the counter (the next gen_ts must
		// re-initialize).
		s.vcs.DeleteCounter(k)
	}
	s.mu.Unlock()
	if perr != nil {
		// The store missed the grant: refuse to hand out a timestamp that
		// would not survive our own restart (a counter that did advance
		// leaves a gap, which never breaks monotonicity). Nothing is
		// stored at the named positions either.
		s.metrics.journalFails.Inc()
		return nil, perr
	}
	s.grants.Add(1)
	resp := GenTSResp{TS: next, Cost: cost}
	if n := len(req.Hr); n > 0 {
		// Only now, the grant journalled, does any named position see a
		// value — stamped with the timestamp just granted.
		resp.Stored, resp.Code, resp.Msg = make([]bool, n), make([]string, n), make([]string, n)
		val := core.Value{Data: req.Data, TS: next}
		for j, i := range req.Hr {
			r, err := s.atReplica(dht.MethodPut, k, i, val)
			if err != nil {
				resp.Code[j], resp.Msg[j] = network.EncodeError(err)
				continue
			}
			resp.Stored[j] = r.(dht.PutResp).Stored
		}
	}
	return resp, nil
}

// handleLastTS implements last_ts: like gen_ts but without incrementing.
// The named replica positions are read after the counter.
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
	if cur, ok := s.vcs.GetCounter(k); ok && c.Less(cur) {
		c = cur
	}
	s.mu.Unlock()
	resp := LastTSResp{TS: c, Cost: cost}
	if n := len(req.Hr); n > 0 {
		resp.Vals, resp.Code, resp.Msg = make([]core.Value, n), make([]string, n), make([]string, n)
		for j, i := range req.Hr {
			r, err := s.atReplica(dht.MethodGet, k, i, core.Value{})
			if err != nil {
				resp.Code[j], resp.Msg[j] = network.EncodeError(err)
				continue
			}
			resp.Vals[j] = r.(dht.GetResp).Val
		}
	}
	return resp, nil
}

// atReplica runs method — dht.MethodGet, or dht.MethodPut of val under
// PutIfNewer — on k's Hr position i through the peer's own store method
// table: the handler every other peer reaches, owns-check and clone
// included. A position the peer does not own is refused with
// core.ErrNotResponsible, like any stale store op.
func (s *Service) atReplica(method string, k core.Key, i int, val core.Value) (network.Message, error) {
	if i < 0 || i >= len(s.set.Hr) || s.replicas == nil {
		return nil, fmt.Errorf("kts: %s serves no replica position %d of %q: %w", s.ring.Self().ID, i, k, core.ErrNotResponsible)
	}
	h := s.set.Hr[i]
	rid, qual := h.ID(k), dht.Qualifier(s.client.Namespace(), k, h.Name())
	var req network.Message = dht.GetReq{RingID: rid, Qual: qual}
	if method == dht.MethodPut {
		req = dht.PutReq{RingID: rid, Qual: qual, Val: val, Mode: dht.PutIfNewer}
	}
	return s.replicas[method](s.ring.Self().Addr, req)
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
	var err error
	s.mu.Lock()
	repair := s.onRepair
	for _, e := range req.Entries {
		cur, ok := s.vcs.GetCounter(e.Key)
		if !ok {
			// We have not touched this key yet; adopt the snapshot.
			if err = s.putCounter(e.Key, e.TS); err != nil {
				break
			}
			corrected++
			continue
		}
		if cur.Less(e.TS) {
			// We initialized too low and may have issued duplicate-range
			// timestamps; jump past the snapshot and repair stored data.
			fixed := e.TS.Max(cur.Add(1))
			if err = s.putCounter(e.Key, fixed); err != nil {
				break
			}
			repairs = append(repairs, repairJob{key: e.Key, oldTS: cur, newTS: fixed})
			corrected++
		}
	}
	s.mu.Unlock()
	// Only what the store recorded is repaired; a refused correction
	// fails the request with the store's error.
	if repair != nil {
		for _, r := range repairs {
			repair(r.key, r.oldTS, r.newTS)
		}
	}
	if err != nil {
		s.metrics.journalFails.Inc()
		return nil, err
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
	ts, ok := s.vcs.GetCounter(k)
	s.mu.Unlock()
	if ok {
		return ts, nil
	}

	init, err := s.indirectInit(ctx, k)
	if err != nil {
		return core.TSZero, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.vcs.GetCounter(k); ok {
		// Lost a race with a concurrent initialization or an arriving
		// handover; keep the larger value.
		init = init.Max(cur)
	}
	if err := s.putCounter(k, init); err != nil {
		s.metrics.journalFails.Inc()
		return core.TSZero, err
	}
	s.indirectInits.Add(1)
	return init, nil
}

// indirectInit is Figure 5: wait out the grace delay, read the replica
// stored at rsp(k, h) for every h ∈ Hr, and return max(ts)+1 — or zero
// when a responsible answered that it holds no replica and none did (a
// never-stamped key). When no read reached a responsible at all it
// returns core.ErrUnreachable: "nothing answered" is not "nothing
// exists", and restarting the counter at 1 over replicas it could not
// see is the regression §4.2.2 exists to prevent.
//
// The |Hr| reads are issued concurrently: the paper prices the algorithm
// in messages (O(|Hr|·cret), unchanged here) and reports only a slight
// response-time impact of the replication factor on UMS-Indirect
// (Figure 9), which matches concurrent reads, not a sequential walk.
func (s *Service) indirectInit(ctx context.Context, k core.Key) (core.Timestamp, error) {
	env := s.ring.Env()
	if wait := s.graceLeft(); wait > 0 {
		if err := env.Sleep(wait); err != nil {
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
	found, absent := false, false
	for _, p := range results {
		cost.Merge(p.meter)
		switch {
		case p.err == nil:
			found = true
			tsm = tsm.Max(p.val.TS)
		case errors.Is(p.err, core.ErrNotFound):
			absent = true // a responsible holds no replica (Figure 5 keeps going)
		}
		// Any other error: that position was unreachable; skip it.
	}
	switch {
	case found:
		return tsm.Next(), nil
	case absent:
		return core.TSZero, nil
	}
	return core.TSZero, fmt.Errorf("kts: init(%q): no replica position answered: %w", k, core.ErrUnreachable)
}

// graceLeft is what an initialization starting now still owes of the
// grace delay. The delay runs from the last change to this peer's arc
// (Ring.HeldSince), not from the request: every grant by a previous
// responsible predates the change that handed the position over, so
// once GraceDelay has passed since then each such grant has had its full
// grace. A ring with no steady arc reports now, which owes the whole
// delay; so does RLU, which by definition cannot detect a change.
func (s *Service) graceLeft() time.Duration {
	if s.cfg.RLU {
		return s.cfg.GraceDelay
	}
	return s.cfg.GraceDelay - (s.ring.Env().Now() - s.ring.HeldSince())
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
	for _, c := range s.counters() {
		if ceded(s.set.HTS.ID(c.Key)) {
			s.vcs.DeleteCounter(c.Key)
			batch.Entries = append(batch.Entries, CounterEntry{Key: c.Key, TS: c.TS})
		}
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
		if cur, ok := s.vcs.GetCounter(e.Key); !ok || cur.Less(e.TS) {
			if s.putCounter(e.Key, e.TS) != nil {
				s.metrics.journalFails.Inc()
			}
		}
	}
	s.directArrivals.Add(uint64(len(batch.Entries)))
}

// RecoverTo sends this peer's counters to the current responsible(s) —
// the recovery strategy run by a restarted peer. Each counter is routed
// to rsp(k, hts) at call time.
func (s *Service) RecoverTo(ctx context.Context) (corrected int, err error) {
	for _, c := range s.counters() {
		e := CounterEntry{Key: c.Key, TS: c.TS}
		resp, cerr := network.Reply[RecoverResp](s.route.Call(ctx, s.set.HTS.ID(e.Key), MethodRecover, RecoverReq{Entries: []CounterEntry{e}}))
		if cerr != nil {
			err = cerr
			continue
		}
		corrected += resp.Corrected
	}
	return corrected, err
}

// ---- periodic inspection ------------------------------------------------

// startInspection launches the periodic inspection task: each round it
// re-reads the replicas for a few held counters and corrects counters
// that are lower than the highest stored timestamp.
func (s *Service) startInspection() {
	// One pick stream for the whole loop: re-deriving it per round would
	// replay the same sequence and pin every round to the same start.
	pick := s.ring.Env().Rand("kts-inspect-pick:" + string(s.ring.Self().Addr))
	dht.Every(s.ring, "kts-inspect", s.cfg.InspectEvery, func(*rand.Rand) { s.inspectOnce(pick) })
}

// inspectOnce checks up to InspectPerRound counters against the DHT.
func (s *Service) inspectOnce(rng interface{ Intn(int) int }) {
	s.mu.Lock()
	repair := s.onRepair
	s.mu.Unlock()
	cs := s.counters()
	if len(cs) == 0 {
		return
	}
	limit := min(s.cfg.InspectPerRound, len(cs))
	start := rng.Intn(len(cs))
	for i := 0; i < limit; i++ {
		k := cs[(start+i)%len(cs)].Key
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
		cur, ok := s.vcs.GetCounter(k)
		corrected := false
		if ok && cur.Less(highest) {
			if corrected = s.putCounter(k, highest) == nil; !corrected {
				s.metrics.journalFails.Inc()
			}
		}
		s.mu.Unlock()
		if corrected && repair != nil {
			repair(k, cur, highest)
		}
	}
}
