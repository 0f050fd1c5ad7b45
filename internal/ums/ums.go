// Package ums implements the paper's Update Management Service (§3):
// insert stamps data with a KTS timestamp and replicates it at the peers
// responsible for the key under every replication hash function;
// retrieve asks KTS for the last generated timestamp and probes replica
// positions one at a time, returning the first replica that carries it —
// so, unlike the BRICKS baseline, it almost never needs to fetch all
// replicas (Theorem 1: E[probes] < 1/pt).
package ums

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network"
	"repro/internal/obs"
)

// Namespace is the storage namespace UMS replicas live in.
const Namespace = "ums"

// ReadRepairer receives retrieve observations: the freshest value a
// retrieve returned plus the probed replica positions that were stale or
// missing. The replica-maintenance subsystem (internal/repair) implements
// it to refresh exactly those positions asynchronously; implementations
// must not block the caller.
type ReadRepairer interface {
	ReadRepair(k core.Key, current core.Value, stale []hashing.Func)
}

// Service is the per-peer UMS instance. Any peer can run inserts and
// retrieves; the heavy lifting happens at the peers responsible for the
// key's replica positions and timestamping.
type Service struct {
	ring    dht.Ring
	set     hashing.Set
	ts      *kts.Service
	client  *dht.Client
	repairs ReadRepairer // nil: read-repair disabled
	tracer  obs.Tracer   // nil: untraced unless the context carries one

	serial, overlapped *obs.Counter // puts by how replicate ran them
}

// New attaches a UMS instance to a peer, wiring it to the peer's KTS
// service. It also registers the KTS repair hook: when recovery or
// inspection raises a counter, the data stamped with the stale timestamp
// is reinserted under the corrected one (§4.2.2).
func New(ring dht.Ring, set hashing.Set, ts *kts.Service) *Service {
	s := &Service{
		ring:   ring,
		set:    set,
		ts:     ts,
		client: dht.NewClient(ring, Namespace),
	}
	mode := ring.Obs().CounterVec("dcdht_ums_replicate_total",
		"Puts by how their replica writes ran: one after the other (serial), or side by side from the first write whose round trip showed the put was waiting on the network (overlapped).",
		"mode")
	s.serial, s.overlapped = mode.With("serial"), mode.With("overlapped")
	ts.SetRepair(s.repair)
	return s
}

// KTS returns the timestamping service this UMS uses.
func (s *Service) KTS() *kts.Service { return s.ts }

// SetReadRepair installs the read-repair sink. Install before serving
// traffic; retrieves read the field without synchronization.
func (s *Service) SetReadRepair(r ReadRepairer) { s.repairs = r }

// SetTracer installs the default op tracer, used when the operation's
// context does not carry one (obs.WithTracer wins). Install before
// serving traffic; operations read the field without synchronization.
func (s *Service) SetTracer(t obs.Tracer) { s.tracer = t }

// Insert implements Figure 2's insert(k, data): generate a timestamp,
// then send (k, {data, ts}) to rsp(k, h) for every h ∈ Hr. Peers keep
// the pair only if the timestamp is newer than what they hold, so of
// concurrent inserts exactly the one with the latest timestamp survives.
func (s *Service) Insert(ctx context.Context, k core.Key, data []byte) (res dht.OpResult, err error) {
	meter := &network.Meter{}
	ctx = network.WithMeter(ctx, meter)
	env := s.ring.Env()
	ctx, finish := dht.TraceOp(ctx, s.tracer, obs.Op{Op: "put", Alg: "ums", Key: string(k)})
	start := env.Now()
	defer func() {
		res.Elapsed = env.Now() - start
		res.Msgs, res.Bytes = meter.Msgs, meter.Bytes
		finish(&res, err)
	}()

	ktsStart := env.Now()
	ts, err := s.ts.GenTS(ctx, k)
	obs.PhasesFrom(ctx).Add(obs.PhaseKTS, env.Now()-ktsStart)
	if err != nil {
		return res, fmt.Errorf("ums: insert(%q): %w", k, err)
	}
	res.TS = ts
	return res, s.replicate(ctx, k, core.Value{Data: data, TS: ts}, &res)
}

// overlapAfter is the replica-write round trip at and beyond which a put
// is paying for waiting rather than for processor time, so that its
// remaining writes are worth overlapping. The measured regimes lie well
// to either side: a loopback tcpwire PutIfNewer takes 0.03–0.15 ms with a
// contention tail of a few ms on the 2-core sandbox, simwire.Cluster()
// (§5.1) about 0.6 ms — where concurrent writes only contend for the
// processors serving them — and a Table 1 WAN write about 700 ms
// (2 × 200 ms latency plus ≈ 150 ms to push 1 KB through 56 kbps).
const overlapAfter = 10 * time.Millisecond

// replicate sends val to rsp(k, h) for every h ∈ Hr, counting stored
// replicas into res. Every replica applies PutIfNewer on its own, so the
// order of the writes carries no meaning (Figure 2 gives none); what it
// costs is time. The writes go one at a time while each returns faster
// than overlapAfter; once one has taken that long the remaining ones
// run side by side, the put then waiting for the slowest instead of for
// their sum. The regime is observed on this put's own store round trips,
// never configured and never remembered.
func (s *Service) replicate(ctx context.Context, k core.Key, val core.Value, res *dht.OpResult) error {
	env := s.ring.Env()
	mode := s.serial
	defer func() { mode.Inc() }()

	// A failed write means that replica position is currently
	// unreachable; the insert proceeds — availability of that replica
	// simply suffers, which is the behaviour the analysis models.
	rest := s.set.Hr
	for waited := false; len(rest) > 0 && !waited; rest = rest[1:] {
		if cerr := network.CtxError(ctx); cerr != nil {
			return fmt.Errorf("ums: insert(%q): %w", k, cerr)
		}
		begin := env.Now()
		if s.client.PutH(ctx, k, rest[0], val, dht.PutIfNewer) == nil {
			res.Stored++
		}
		waited = env.Now()-begin >= overlapAfter
	}
	if len(rest) > 0 {
		mode = s.overlapped
		// A Meter is a plain struct: each branch charges its own and the
		// op's meter takes their sum once all have finished. (hs, because
		// a closure over rest, which the loop reassigns, would move it to
		// the heap on every put, the serial ones included.)
		hs := rest
		type write struct {
			stored bool
			meter  network.Meter
		}
		writes := make([]write, len(hs))
		if jerr := env.Join(len(hs), func(i int) {
			w := &writes[i]
			w.stored = s.client.PutH(network.WithMeter(ctx, &w.meter), k, hs[i], val, dht.PutIfNewer) == nil
		}); jerr != nil {
			// The environment shut down with branches still running:
			// what they hold is not ours to read.
			return fmt.Errorf("ums: insert(%q): %w", k, jerr)
		}
		cost := network.MeterFrom(ctx)
		landed := 0
		for _, w := range writes {
			cost.Merge(w.meter)
			if w.stored {
				landed++
			}
		}
		res.Stored += landed
		if landed < len(hs) {
			// A context that ended under the branches is why they failed.
			if cerr := network.CtxError(ctx); cerr != nil {
				return fmt.Errorf("ums: insert(%q): %w", k, cerr)
			}
		}
	}
	if res.Stored == 0 {
		return fmt.Errorf("ums: insert(%q): no replica stored: %w", k, core.ErrUnreachable)
	}
	return nil
}

// InsertWithTS is Insert for a caller that already holds the key's fresh
// timestamp — one slot of a batched gen_ts round: it replicates
// (k, {data, ts}) without a KTS round trip of its own.
func (s *Service) InsertWithTS(ctx context.Context, k core.Key, data []byte, ts core.Timestamp) (res dht.OpResult, err error) {
	meter := &network.Meter{}
	ctx = network.WithMeter(ctx, meter)
	env := s.ring.Env()
	ctx, finish := dht.TraceOp(ctx, s.tracer, obs.Op{Op: "put", Alg: "ums", Key: string(k)})
	start := env.Now()
	defer func() {
		res.Elapsed = env.Now() - start
		res.Msgs, res.Bytes = meter.Msgs, meter.Bytes
		finish(&res, err)
	}()
	res.TS = ts
	return res, s.replicate(ctx, k, core.Value{Data: data, TS: ts}, &res)
}

// InsertMulti inserts many keys with one KTS round per responsible: a
// batched gen_ts fetches every timestamp first (kts.GenTSBatch groups
// the keys by rsp(k, hts)), then the replica fan-outs run concurrently.
// Outcomes are per key, parallel to keys.
func (s *Service) InsertMulti(ctx context.Context, keys []core.Key, datas [][]byte) ([]dht.OpResult, []error) {
	n := len(keys)
	results := make([]dht.OpResult, n)
	errs := make([]error, n)
	tss, terrs := s.ts.GenTSBatch(ctx, keys)
	if jerr := s.ring.Env().Join(n, func(i int) {
		if terrs[i] != nil {
			errs[i] = fmt.Errorf("ums: insert(%q): %w", keys[i], terrs[i])
			return
		}
		results[i], errs[i] = s.InsertWithTS(ctx, keys[i], datas[i], tss[i])
	}); jerr != nil {
		for i := range errs {
			if errs[i] == nil && results[i].TS.IsZero() {
				errs[i] = jerr
			}
		}
	}
	return results, errs
}

// RetrieveMulti retrieves many keys under one policy. At LevelCurrent
// the authoritative last_ts round is batched (one KTS message per
// responsible, kts.LastTSBatch) and each retrieve runs with the proof it
// came back with; the other levels have no KTS round to batch and
// simply fan out. Outcomes are per key, parallel to keys.
func (s *Service) RetrieveMulti(ctx context.Context, keys []core.Key, pol dht.ReadPolicy) ([]dht.OpResult, []error) {
	n := len(keys)
	results := make([]dht.OpResult, n)
	errs := make([]error, n)
	seen := make([]bool, n)
	var tss []core.Timestamp
	var terrs []error
	batched := pol.Level == dht.LevelCurrent && pol.KnownTS.IsZero() && !pol.FloorFirst
	if batched {
		tss, terrs = s.ts.LastTSBatch(ctx, keys)
	}
	if jerr := s.ring.Env().Join(n, func(i int) {
		defer func() { seen[i] = true }()
		p := pol
		if batched {
			if terrs[i] != nil {
				errs[i] = fmt.Errorf("ums: retrieve(%q): %w", keys[i], terrs[i])
				return
			}
			if tss[i].IsZero() {
				errs[i] = fmt.Errorf("ums: retrieve(%q): never inserted: %w", keys[i], core.ErrNotFound)
				return
			}
			p.KnownTS = tss[i]
		}
		results[i], errs[i] = s.RetrieveWith(ctx, keys[i], p)
	}); jerr != nil {
		for i := range errs {
			if !seen[i] && errs[i] == nil {
				errs[i] = jerr
			}
		}
	}
	return results, errs
}

// Retrieve implements Figure 2's retrieve(k): fetch the last timestamp
// ts1 from KTS, then probe rsp(k, h) for each h ∈ Hr until a replica
// stamped ts1 appears. If none is reachable, the most recent available
// replica is returned together with core.ErrNoCurrentReplica. This is
// RetrieveWith at the default provably-current level.
func (s *Service) Retrieve(ctx context.Context, k core.Key) (dht.OpResult, error) {
	return s.RetrieveWith(ctx, k, dht.ReadPolicy{})
}

// RetrieveWith is retrieve(k) generalized over an acceptance predicate:
// instead of always requiring KTS's last_ts, probing stops at the first
// replica satisfying the requested consistency level —
//
//   - LevelCurrent: the authoritative last_ts, fetched from KTS first
//     (the paper's Figure 2; verdict Proven);
//   - LevelBounded: a cached last_ts no older than pol.Bound, when this
//     peer holds one, with no KTS round trip (verdict WithinBound);
//     otherwise the authoritative path runs and the answer refreshes
//     the cache;
//   - LevelEventual: the first reachable replica, no KTS round trip
//     (verdict Unknown).
//
// A non-zero pol.Floor (a session's per-key floor) is enforced at every
// level: no successful retrieve returns a replica older than it. With
// pol.FloorFirst the floor itself is the acceptance target — the
// session fast path: one probe typically, zero KTS messages, verdict
// SessionFloor.
//
// When no probed replica satisfies the predicate, the most recent
// available one is returned together with core.ErrNoCurrentReplica
// (Figure 2's data_mr path), and the probed set is handed to
// read-repair.
func (s *Service) RetrieveWith(ctx context.Context, k core.Key, pol dht.ReadPolicy) (res dht.OpResult, err error) {
	meter := &network.Meter{}
	ctx = network.WithMeter(ctx, meter)
	env := s.ring.Env()
	ctx, finish := dht.TraceOp(ctx, s.tracer,
		obs.Op{Op: "get", Alg: "ums", Level: pol.Level.String(), Key: string(k)})
	start := env.Now()
	defer func() {
		res.Elapsed = env.Now() - start
		res.Msgs, res.Bytes = meter.Msgs, meter.Bytes
		finish(&res, err)
	}()

	// Resolve the acceptance target: the timestamp a replica must reach
	// and the currency verdict an accepting replica earns.
	target := core.TSZero
	verdict := dht.CurrencyUnknown
	switch {
	case pol.FloorFirst && !pol.Floor.IsZero():
		// Session fast path: the floor is the bar; no KTS round trip.
		// If no reachable replica meets the floor the probe loop has
		// read every position, so an authoritative last_ts could not
		// surface a fresher replica either — fall through to data_mr.
		target, verdict = pol.Floor, dht.CurrencySessionFloor
		res.Floor = pol.Floor
	case pol.Level == dht.LevelEventual:
		// First reachable replica; a session floor still bounds below.
		target = pol.Floor
		if !pol.Floor.IsZero() {
			verdict = dht.CurrencySessionFloor
		}
		res.Floor = pol.Floor
	case pol.Level == dht.LevelBounded && s.cachedTarget(k, pol, &res):
		target, verdict = res.Floor, dht.CurrencyWithinBound
	case pol.Level == dht.LevelCurrent && !pol.KnownTS.IsZero():
		// The caller already holds the authoritative last_ts (a batched
		// KTS round fetched it): same proof, no second round trip.
		target = pol.KnownTS.Max(pol.Floor)
		verdict = dht.CurrencyProven
		res.Floor = target
	default:
		// LevelCurrent, or LevelBounded without a fresh enough cached
		// floor: the authoritative path (which also refreshes the
		// issuing peer's cache for the next bounded read).
		ktsStart := env.Now()
		ts1, lerr := s.ts.LastTS(ctx, k)
		obs.PhasesFrom(ctx).Add(obs.PhaseKTS, env.Now()-ktsStart)
		if lerr != nil {
			return res, fmt.Errorf("ums: retrieve(%q): %w", k, lerr)
		}
		if ts1.IsZero() {
			return res, fmt.Errorf("ums: retrieve(%q): never inserted: %w", k, core.ErrNotFound)
		}
		target = ts1.Max(pol.Floor)
		verdict = dht.CurrencyProven
		res.Floor = target
	}

	var dataMR []byte // most recent replica seen so far (Figure 2's data_mr)
	tsMR := core.TSZero
	var missed []observation // probed positions that did not meet the target
	for _, h := range s.set.Hr {
		if cerr := network.CtxError(ctx); cerr != nil {
			return res, fmt.Errorf("ums: retrieve(%q): %w", k, cerr)
		}
		res.Probed++
		probeStart := env.Now()
		val, gerr := s.client.GetH(ctx, k, h)
		obs.PhasesFrom(ctx).Add(obs.PhaseProbe, env.Now()-probeStart)
		if gerr != nil {
			missed = append(missed, observation{h: h, missing: true})
			continue // replica unavailable (peer down, data lost, stale lookup)
		}
		res.Retrieved++
		if !val.TS.Less(target) {
			// One acceptable replica found: return it immediately,
			// handing the stale positions seen on the way to
			// read-repair. A zero target (plain eventual) accepts the
			// first fetched replica.
			res.Data, res.TS, res.Currency = val.Data, val.TS, verdict
			s.readRepair(k, val, missed)
			return res, nil
		}
		missed = append(missed, observation{h: h, ts: val.TS})
		if tsMR.Less(val.TS) {
			dataMR, tsMR = val.Data, val.TS
		}
	}
	if dataMR == nil {
		return res, fmt.Errorf("ums: retrieve(%q): no replica available: %w", k, core.ErrNotFound)
	}
	// No replica met the predicate: still refresh the probed set with the
	// most recent available value — PutIfNewer only restores availability,
	// it can never push a replica backwards.
	s.readRepair(k, core.Value{Data: dataMR, TS: tsMR}, missed)
	res.Data, res.TS = dataMR, tsMR
	return res, fmt.Errorf("ums: retrieve(%q): returning most recent available: %w", k, core.ErrNoCurrentReplica)
}

// cachedTarget consults the issuing peer's last-ts cache for a bounded
// read. On a hit within the bound it loads the acceptance floor and its
// age into res and reports true; the retrieve then runs with no KTS
// round trip.
func (s *Service) cachedTarget(k core.Key, pol dht.ReadPolicy, res *dht.OpResult) bool {
	cts, age, ok := s.ts.Cached(k)
	if !ok || age > pol.Bound {
		return false
	}
	res.Floor, res.FloorAge = cts.Max(pol.Floor), age
	return true
}

// observation records one probed replica position that did not carry the
// sought timestamp: either nothing was readable there, or a value behind
// the target.
type observation struct {
	h       hashing.Func
	ts      core.Timestamp
	missing bool
}

// readRepair forwards a retrieve's observation to the installed sink, if
// any, keeping only the positions a PutIfNewer push of the returned
// value could actually improve — missing replicas and those strictly
// behind it (the position that supplied the value itself would reject
// the push). The sink refreshes asynchronously; the retrieve never
// waits.
func (s *Service) readRepair(k core.Key, current core.Value, obs []observation) {
	if s.repairs == nil {
		return
	}
	var stale []hashing.Func
	for _, o := range obs {
		if o.missing || o.ts.Less(current.TS) {
			stale = append(stale, o.h)
		}
	}
	if len(stale) == 0 {
		return
	}
	s.repairs.ReadRepair(k, current, stale)
}

// repair is the KTS repair hook (§4.2.2): after a counter correction,
// re-stamp the newest stored replica with the corrected timestamp so a
// subsequent retrieve can match last_ts again.
func (s *Service) repair(k core.Key, oldTS, newTS core.Timestamp) {
	env := s.ring.Env()
	env.Go(func() {
		ctx := context.Background()
		var best core.Value
		found := false
		for _, h := range s.set.Hr {
			if val, err := s.client.GetH(ctx, k, h); err == nil {
				if !found || best.TS.Less(val.TS) {
					best = val
					found = true
				}
			}
		}
		if !found || newTS.Less(best.TS) {
			return
		}
		reinsert := core.Value{Data: best.Data, TS: newTS}
		for _, h := range s.set.Hr {
			s.client.PutH(ctx, k, h, reinsert, dht.PutIfNewer)
		}
	})
}

// IsNoCurrent reports whether err is the "stale but available" outcome.
func IsNoCurrent(err error) bool { return errors.Is(err, core.ErrNoCurrentReplica) }
