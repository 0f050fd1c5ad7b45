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
	"slices"
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

	puts, gets modes        // by whether their round trips overlapped
	prefetched *obs.Counter // puts whose writes all went at once (see replicate)
	fused      *obs.Counter // gets whose first probe rode on last_ts (see lastTS)
}

// modes counts operations by how their round trips ran: one after the
// other, or overlapped once one of them showed the op waiting on the
// network.
type modes struct{ serial, overlapped *obs.Counter }

func newModes(v *obs.CounterVec) modes {
	return modes{serial: v.With("serial"), overlapped: v.With("overlapped")}
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
	puts := ring.Obs().CounterVec("dcdht_ums_replicate_total",
		"Puts by how their replica writes ran: one after the other (serial), side by side from the first write whose round trip showed the put was waiting on the network (overlapped), or all side by side because an owner lookup run while gen_ts was outstanding took that long (prefetched).",
		"mode")
	s.puts, s.prefetched = newModes(puts), puts.With("prefetched")
	gets := ring.Obs().CounterVec("dcdht_ums_retrieve_total",
		"Retrieves that asked KTS for last_ts, by when their first probe went: after last_ts answered (serial), alongside a last_ts still outstanding after the overlap threshold (overlapped), or with last_ts itself, read by the timestamp responsible from a replica it owns (fused).",
		"mode")
	s.gets, s.fused = newModes(gets), gets.With("fused")
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
//
// Only the writes' payload needs ts, not finding rsp(k, h): a gen_ts
// still outstanding after overlapAfter gets the owner lookups the
// writes would run resolved alongside it (see prefetch). No write
// leaves before ts exists. The positions the issuer guesses rsp(k, hts)
// owns ride on gen_ts itself (kts.Service.GenTSStore): that peer stores
// them once it has granted ts, and only the rest are written here.
func (s *Service) Insert(ctx context.Context, k core.Key, data []byte) (res dht.OpResult, err error) {
	env := s.ring.Env()
	ctx, span := dht.TraceOp(ctx, env, s.tracer, obs.Op{Op: "put", Alg: "ums", Key: string(k)})
	defer span.End(&res, &err)

	guessed := s.guesses(k)
	at := s.colocated(k, guessed)
	p := &prefetch{s: s, k: k, guessed: guessed}
	p.arm(env, ctx, p.resolve)
	ktsStart := env.Now()
	ts, sv, err := s.ts.GenTSStore(ctx, k, data, at)
	obs.PhasesFrom(ctx).Add(obs.PhaseKTS, env.Now()-ktsStart)
	// A gen_ts that failed leaves nothing to write: its lookups are
	// cancelled, and the put returns once they have unwound.
	_, werr := p.settle(err != nil)
	if werr != nil {
		// The environment shut down under the lookups: what they hold is
		// not ours to read.
		return res, fmt.Errorf("ums: insert(%q): %w", k, werr)
	}
	if err != nil {
		return res, fmt.Errorf("ums: insert(%q): %w", k, err)
	}
	res.TS = ts
	var done positions // what gen_ts stored; a refused or unstored position is written below
	if len(at) > 0 {
		done = newPositions(len(s.set.Hr))
		for j, i := range at {
			if sv.Stored[j] {
				done.add(i)
				res.Stored++
			}
		}
	}
	return res, s.replicate(ctx, k, core.Value{Data: data, TS: ts}, &res, p, done)
}

// guesses names each Hr position's owner from what the ring already
// knows, at no message, once per put: what a fused gen_ts's positions,
// the prefetch's lookups and the writes' groups rest on.
func (s *Service) guesses(k core.Key) []dht.Target {
	targets := make([]dht.Target, len(s.set.Hr))
	for i, h := range s.set.Hr {
		t := &targets[i]
		t.ID = h.ID(k)
		t.Ref, t.Src = s.ring.Guess(t.ID)
	}
	return targets
}

// colocated names, in Hr order and at no message, the positions among
// targets (guesses) whose guessed owner the ring also guesses to own
// hts(k): rsp(k, hts), which a fused gen_ts or last_ts asks to serve
// them in its own round trip. It names none when the ring cannot guess
// hts's owner. The guesses only pick the positions: rsp(k, hts) refuses
// each one it does not own, and that one then goes the ordinary way.
func (s *Service) colocated(k core.Key, targets []dht.Target) []int {
	hts, src := s.ring.Guess(s.set.HTS.ID(k))
	if src == dht.NoGuess {
		return nil
	}
	var at []int
	for i, t := range targets {
		if t.Src != dht.NoGuess && t.Ref.Addr == hts.Addr {
			at = append(at, i)
		}
	}
	return at
}

// readColocated is colocated for a read: none when the issuer owns a
// position, whose probe goes first and in-process.
func (s *Service) readColocated(k core.Key) []int {
	var few [16]dht.Target
	targets := few[:0]
	for _, h := range s.set.Hr {
		id := h.ID(k)
		if s.ring.OwnsID(id) {
			return nil
		}
		ref, src := s.ring.Guess(id)
		targets = append(targets, dht.Target{ID: id, Ref: ref, Src: src})
	}
	return s.colocated(k, targets)
}

// overlapAfter is the round trip at and beyond which an op is paying for
// waiting rather than for processor time, so that what it would do next
// is worth starting now: a put's remaining replica writes once one write
// (or one owner lookup) took this long, a put's owner lookups once
// gen_ts has been outstanding this long, a retrieve's first probe once
// last_ts has. The measured regimes lie well to either side: a
// loopback tcpwire call takes 0.03–0.15 ms with a contention tail of a
// few ms on the 2-core sandbox, simwire.Cluster() (§5.1) about 0.6 ms —
// where concurrent calls only contend for the processors serving them —
// and a Table 1 WAN round trip 400–700 ms (2 × 200 ms latency, plus
// ≈ 150 ms to push 1 KB through 56 kbps when the message carries data).
const overlapAfter = 10 * time.Millisecond

// replicate sends val to rsp(k, h) for every h ∈ Hr but the positions
// done (those a fused gen_ts stored), counting stored replicas into res.
// Every replica applies PutIfNewer on its own, so the
// order of the writes carries no meaning (Figure 2 gives none); what it
// costs is messages and time. Positions whose owner is known before any
// write leaves share one message per owner (see groups); the rest each
// get their own. The groups go one at a time while each returns faster
// than overlapAfter; once one has taken that long the remaining ones
// run side by side, the put then waiting for the slowest instead of for
// their sum. The regime is observed on this put's own round trips, never
// configured and never remembered: when owners resolved while stamping
// (owners: the put's guesses and prefetch, nil when it made none)
// include a lookup that took overlapAfter or longer, no group goes alone
// and all run side by side at once.
func (s *Service) replicate(ctx context.Context, k core.Key, val core.Value, res *dht.OpResult, owners *prefetch, done positions) error {
	env := s.ring.Env()
	mode := s.puts.serial
	defer func() { mode.Inc() }()

	// A failed write means that replica position is currently
	// unreachable; the insert proceeds — availability of that replica
	// simply suffers, which is the behaviour the analysis models.
	groups := s.groups(k, owners, done)
	n := len(groups)
	i, waited := 0, false
	if owners != nil && owners.slow {
		mode, waited = s.prefetched, true
	}
	for ; i < n && !waited; i++ {
		if cerr := network.CtxError(ctx); cerr != nil {
			return fmt.Errorf("ums: insert(%q): %w", k, cerr)
		}
		begin := env.Now()
		res.Stored += s.write(ctx, k, groups[i], val)
		waited = env.Now()-begin >= overlapAfter
	}
	if i < n {
		if mode == s.puts.serial {
			mode = s.puts.overlapped
		}
		// A Meter is a plain struct: each branch charges its own and the
		// op's meter takes their sum once all have finished. (first,
		// because a closure over i, which the loop reassigns, would move
		// it to the heap on every put, the serial ones included.)
		first := i
		type write struct {
			stored int
			meter  network.Meter
		}
		writes := make([]write, n-first)
		if jerr := env.Join(len(writes), func(j int) {
			w := &writes[j]
			w.stored = s.write(network.WithMeter(ctx, &w.meter), k, groups[first+j], val)
		}); jerr != nil {
			// The environment shut down with branches still running:
			// what they hold is not ours to read.
			return fmt.Errorf("ums: insert(%q): %w", k, jerr)
		}
		cost := network.MeterFrom(ctx)
		landed, sent := 0, 0
		for j, w := range writes {
			cost.Merge(w.meter)
			landed += w.stored
			sent += len(groups[first+j].hs)
		}
		res.Stored += landed
		if landed < sent {
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

// group is the Hr positions of a put that travel as one write: every
// position whose owner is known before any write is sent — named by the
// ring's guess or by a lookup run while stamping — with the others that
// peer owns, and a position whose owner is not known alone. targets is
// what is known of each position's owner, parallel to hs.
type group struct {
	hs      []hashing.Func
	targets []dht.Target
}

// groups splits Hr but the positions done into the put's writes, in the
// order of each group's first position, each position's owner as owners
// knows it — the put's guess, or its lookup run while stamping — or as
// the ring guesses it now. A position the ring declines to guess and no
// lookup resolved is a group of its own, so the lookup its write runs
// delays only that write; a guessed position alone in its group names
// no owner ahead, and its write guesses again when it goes.
func (s *Service) groups(k core.Key, owners *prefetch, done positions) []group {
	n := len(s.set.Hr)
	targets := make([]dht.Target, n) // a done position's stays zero and joins no group
	for i, h := range s.set.Hr {
		if done.has(i) {
			continue
		}
		t := &targets[i]
		t.ID = h.ID(k)
		switch {
		case owners != nil && owners.owners != nil && owners.owners[i].looked:
			t.Ref, t.Looked = owners.owners[i].ref, true
		case owners != nil && owners.guessed[i].Src != dht.NoGuess:
			t.Ref, t.Src = owners.guessed[i].Ref, owners.guessed[i].Src
		default:
			t.Ref, t.Src = s.ring.Guess(t.ID)
		}
	}
	// One backing array each for the groups' positions and targets.
	hs, ts := make([]hashing.Func, 0, n), make([]dht.Target, 0, n)
	groups := make([]group, 0, n)
	for i, t := range targets {
		if done.has(i) || !t.Ref.IsZero() && slices.IndexFunc(targets, func(o dht.Target) bool { return o.Ref.Addr == t.Ref.Addr }) < i {
			continue // stored already, or that owner's group has gone
		}
		from := len(hs)
		for j := i; j < n; j++ {
			if j == i || !t.Ref.IsZero() && targets[j].Ref.Addr == t.Ref.Addr {
				hs, ts = append(hs, s.set.Hr[j]), append(ts, targets[j])
			}
		}
		if len(hs) == from+1 && t.Src != dht.NoGuess {
			ts[from] = dht.Target{ID: t.ID}
		}
		groups = append(groups, group{hs: hs[from:], targets: ts[from:]})
	}
	return groups
}

// write sends val to the owner of g's positions (dht.Client.PutHEach)
// and reports how many of them stored it.
func (s *Service) write(ctx context.Context, k core.Key, g group, val core.Value) (stored int) {
	for _, err := range s.client.PutHEach(ctx, k, g.hs, g.targets, val, dht.PutIfNewer) {
		if err == nil {
			stored++
		}
	}
	return stored
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
//     (the paper's Figure 2; verdict Proven) — with the first probe
//     sent alongside once last_ts is slow (see lastTS);
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
	env := s.ring.Env()
	ctx, span := dht.TraceOp(ctx, env, s.tracer,
		obs.Op{Op: "get", Alg: "ums", Level: pol.Level.String(), Key: string(k)})
	defer span.End(&res, &err)

	// Resolve the acceptance target: the timestamp a replica must reach
	// and the currency verdict an accepting replica earns.
	target := core.TSZero
	verdict := dht.CurrencyUnknown
	var first []earlyRead // the first probes' reads, when they rode on or alongside last_ts
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
	default:
		// LevelCurrent, or LevelBounded without a fresh enough cached
		// floor: the authoritative path (which also refreshes the
		// issuing peer's cache for the next bounded read).
		ts1, early, lerr := s.lastTS(ctx, k)
		if lerr != nil {
			return res, fmt.Errorf("ums: retrieve(%q): %w", k, lerr)
		}
		if ts1.IsZero() {
			return res, fmt.Errorf("ums: retrieve(%q): never inserted: %w", k, core.ErrNotFound)
		}
		target = ts1.Max(pol.Floor)
		verdict = dht.CurrencyProven
		res.Floor = target
		first = early
	}

	var dataMR []byte // most recent replica seen so far (Figure 2's data_mr)
	tsMR := core.TSZero
	var missed []observation // probed positions that did not meet the target
	var few [1]uint64
	probed := positions(few[:])
	if n := len(s.set.Hr); n > 64 {
		probed = newPositions(n)
	}
	for range s.set.Hr {
		if cerr := network.CtxError(ctx); cerr != nil {
			return res, fmt.Errorf("ums: retrieve(%q): %w", k, cerr)
		}
		res.Probed++
		var i int
		var val core.Value
		var gerr error
		if len(first) > 0 {
			i, val, gerr = first[0].pos, first[0].val, first[0].err
			first = first[1:]
		} else {
			i = s.nextProbe(k, probed, false)
			probeStart := env.Now()
			val, gerr = s.client.GetH(ctx, k, s.set.Hr[i])
			obs.PhasesFrom(ctx).Add(obs.PhaseProbe, env.Now()-probeStart)
		}
		probed.add(i)
		h := s.set.Hr[i]
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

// nextProbe names the Hr position a retrieve probes next, among those
// not yet probed: one the issuer owns, whose read its router serves
// in-process at no message; else the first whose owner the ring names
// without a lookup; else the first. Figure 2's proof and Eq. 1 rest on
// which replicas are current, never on the order they are probed in
// (docs/PROTOCOLS.md, "Retrieve sequencing"), so the cheapest position
// goes first. A warm issuer that owns none knows Hr[0]'s and probes in
// Figure 2's order. Ownership and the guess only order the probes: the
// probe itself goes through the router, whose callee's owns-check
// confirms it, and a stale guess falls back to a lookup there. remote
// skips the owned positions (the early probe's rule, see lastTS); it
// returns -1 when every position left is owned.
func (s *Service) nextProbe(k core.Key, probed positions, remote bool) int {
	guessed, fallback := -1, -1
	for i, h := range s.set.Hr {
		if probed.has(i) {
			continue
		}
		id := h.ID(k)
		if s.ring.OwnsID(id) {
			if remote {
				continue
			}
			return i
		}
		if fallback < 0 {
			fallback = i
		}
		if guessed < 0 {
			if _, src := s.ring.Guess(id); src != dht.NoGuess {
				guessed = i
			}
		}
	}
	if guessed >= 0 {
		return guessed
	}
	return fallback
}

// positions marks Hr positions, one bit each — those a retrieve has
// probed, or a fused gen_ts stored; nil marks none.
type positions []uint64

// newPositions returns an empty set of n positions.
func newPositions(n int) positions { return make(positions, (n+63)/64) }

func (p positions) has(i int) bool { return i/64 < len(p) && p[i/64]&(1<<(i%64)) != 0 }
func (p positions) add(i int)      { p[i/64] |= 1 << (i % 64) }

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

// lastTS fetches Figure 2's ts1 = KTS.last_ts(k) for a retrieve,
// together with the retrieve's first probes when they can go with it.
// The positions the issuer guesses rsp(k, hts) owns ride on last_ts
// itself (kts.Service.LastTSRead; see colocated): that peer reads its
// counter, then those replicas. Figure 2 probes only after last_ts
// answers, but its proof needs no more than the accepted replica
// carrying ts1 (docs/PROTOCOLS.md, "Retrieve sequencing"), so a last_ts
// still outstanding after overlapAfter also gets a probe sent alongside
// it (see overlap): of the position nextProbe names when it fires among
// those neither named nor owned by the issuer. An owned replica is read
// in-process for free once last_ts has answered, so sending it early
// gains nothing, and taking the slot would leave the remote probe to
// run after last_ts; a named one comes back with last_ts anyway. A
// probe that went is waited for whatever last_ts returned; its messages
// and time are charged to the op. The reads come back in first — the
// early probe's, then the named positions' in Hr order — for the probe
// loop to start from. A named position that rsp(k, hts) refused or did
// not answer is not among them: the loop probes it the ordinary way.
func (s *Service) lastTS(ctx context.Context, k core.Key) (ts1 core.Timestamp, first []earlyRead, err error) {
	env := s.ring.Env()
	at := s.readColocated(k)
	p := &probe{s: s, k: k}
	if len(at) > 0 {
		p.named = newPositions(len(s.set.Hr))
		for _, i := range at {
			p.named.add(i)
		}
	}
	p.arm(env, ctx, p.read)
	begin := env.Now()
	ts1, sv, err := s.ts.LastTSRead(ctx, k, at)
	took := env.Now() - begin
	obs.PhasesFrom(ctx).Add(obs.PhaseKTS, took)
	went, werr := p.settle(false)
	if went && (werr != nil || p.pos >= 0) {
		s.gets.overlapped.Inc()
		if werr != nil {
			// The environment shut down under the probe: what it holds
			// is not ours to read.
			return ts1, nil, werr
		}
		obs.PhasesFrom(ctx).Add(obs.PhaseProbe, p.took)
		first = append(first, p.earlyRead)
	}
	early := len(first)
	for j := range sv.Errs {
		// A replica the responsible read, or found missing, is a probe; a
		// position it refused is left to the loop.
		if e := sv.Errs[j]; e == nil || errors.Is(e, core.ErrNotFound) {
			first = append(first, earlyRead{pos: at[j], val: sv.Vals[j], err: e})
		}
	}
	if len(first) > early {
		// Those replicas were read within last_ts's round trip, and so
		// was their probe time.
		obs.PhasesFrom(ctx).Add(obs.PhaseProbe, took)
	}
	switch {
	case len(first) == 0:
		s.gets.serial.Inc()
	case early == 0:
		s.fused.Inc()
	}
	return ts1, first, err
}

// earlyRead is what the first probe read when it went alongside last_ts.
type earlyRead struct {
	pos int // the Hr position it read; -1 when none was left to read
	val core.Value
	err error
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
		// One write per owner, as a put's (groups); not replicate, whose
		// mode counters count puts.
		reinsert := core.Value{Data: best.Data, TS: newTS}
		for _, g := range s.groups(k, nil, nil) {
			s.write(ctx, k, g, reinsert)
		}
	})
}

// IsNoCurrent reports whether err is the "stale but available" outcome.
func IsNoCurrent(err error) bool { return errors.Is(err, core.ErrNoCurrentReplica) }
