package main

import (
	"context"
	"sync"
	"time"

	dcdht "repro"
	"repro/internal/dht"
	"repro/internal/obs"
)

// loadClients is the number of closed-loop client goroutines (nproc on
// the 2-core sandbox the bounds were sized on). Each waits for its reply
// before issuing its next op, which is how callers of the synchronous
// Client API behave.
const loadClients = 2

// span is one op as the benchmark saw it from outside: the op itself
// and, on traced runs, the child phases the program reported through the
// tracer carried on the call context.
type span struct {
	ID     int // position in the issuing client's stream
	Client int
	Issuer int // node index; -1 through the gateway or the sim facade
	Kind   opKind
	Level  dht.Level
	Key    int
	Start  time.Duration // since the phase began (simulated time on sim-wan)
	Lat    time.Duration // wall around the client call; sim-wan replaces it with Reported
	// Reported is Result.Elapsed, the program's own measure of the op: wall
	// time on a Node, simulated time on a SimNetwork.
	Reported time.Duration
	Msgs     int
	Probed   int
	Stored   int
	// Outcome: Failed is any error other than the stale fallback; Stale is
	// IsNoCurrent, the most recent available replica returned.
	Failed, Stale, Proven bool
	// Children, zero on untraced runs. Lookup is nested inside KTS and
	// Probe: the program charges it where the lookup was needed.
	KTS, Probe, Lookup time.Duration
}

// opTracer collects the phases of the op whose context carries it. Each
// client owns one and resets it per op; a gateway op that coalesces onto
// another client's flight, or is served from the gateway cache, sees no
// events and keeps zero children.
type opTracer struct {
	kts, probe, lookup time.Duration
}

func (t *opTracer) OpStart(obs.Op) {}

func (t *opTracer) OpEnd(r obs.OpResult) {
	for _, ph := range r.Phases {
		switch ph.Name {
		case obs.PhaseKTS:
			t.kts += ph.D
		case obs.PhaseProbe:
			t.probe += ph.D
		case obs.PhaseLookup:
			t.lookup += ph.D
		}
	}
}

// kindAgg accumulates one op kind within one window. Latencies are kept
// as samples; everything else is summed as it arrives, so an untraced
// run's memory does not grow with a span per op.
type kindAgg struct {
	attempted, failed  int
	stale, proven      int
	lat                []float64 // ms; every op that returned data or was acknowledged
	msgs, probed       int64
	stored             int64
	kts, probe, lookup time.Duration
}

func (a *kindAgg) ok() int { return len(a.lat) }

func (a *kindAgg) merge(b *kindAgg) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.stale += b.stale
	a.proven += b.proven
	a.lat = append(a.lat, b.lat...)
	a.msgs += b.msgs
	a.probed += b.probed
	a.stored += b.stored
	a.kts += b.kts
	a.probe += b.probe
	a.lookup += b.lookup
}

// windowAgg is one measurement window: both op kinds, and Get latencies
// split by consistency level.
type windowAgg struct {
	kind  [2]kindAgg // indexed by opKind
	level [3][]float64
}

func (w *windowAgg) add(sp span) {
	a := &w.kind[sp.Kind]
	a.attempted++
	if sp.Failed {
		a.failed++
		return
	}
	ms := float64(sp.Lat) / 1e6
	a.lat = append(a.lat, ms)
	a.msgs += int64(sp.Msgs)
	a.probed += int64(sp.Probed)
	a.stored += int64(sp.Stored)
	a.kts += sp.KTS
	a.probe += sp.Probe
	a.lookup += sp.Lookup
	if sp.Stale {
		a.stale++
	}
	if sp.Proven {
		a.proven++
	}
	if sp.Kind == opGet {
		w.level[sp.Level] = append(w.level[sp.Level], ms)
	}
}

func (w *windowAgg) merge(o *windowAgg) {
	for k := range w.kind {
		w.kind[k].merge(&o.kind[k])
	}
	for l := range w.level {
		w.level[l] = append(w.level[l], o.level[l]...)
	}
}

// pooled merges both kinds: "the workload's ops".
func (w *windowAgg) pooled() kindAgg {
	var a kindAgg
	a.merge(&w.kind[opGet])
	a.merge(&w.kind[opPut])
	return a
}

// phaseResult is what one timed phase of load produced.
type phaseResult struct {
	windows []windowAgg
	width   time.Duration // of one window
	elapsed time.Duration
	spans   []span // traced phases only
}

// total merges every window.
func (p *phaseResult) total() windowAgg {
	var t windowAgg
	for i := range p.windows {
		t.merge(&p.windows[i])
	}
	return t
}

// runLoad drives loadClients closed-loop clients against c for d, split
// into nwin windows, continuing each client's stream. With traced set
// every op carries a tracer on its context and its span is kept.
func runLoad(ctx context.Context, c *cluster, streams []*opStream, chk *checker, d time.Duration, nwin int, traced bool) phaseResult {
	out := phaseResult{windows: make([]windowAgg, nwin), width: d / time.Duration(nwin)}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := time.Now()
	// Ops abort if the phase overruns badly instead of hanging the run.
	ctx, cancel := context.WithDeadline(ctx, start.Add(d+20*time.Second))
	defer cancel()
	for _, s := range streams {
		wg.Add(1)
		go func(s *opStream) {
			defer wg.Done()
			var tr opTracer
			var spans []span
			wins := make([]windowAgg, nwin)
			for n := 0; time.Since(start) < d; n++ {
				op := s.next()
				// Issuers rotate over all nodes, offset per client so the
				// clients do not march in step; through a gateway the
				// client's session is the one issuer.
				issuer := (n*loadClients + s.client) % len(c.nodes)
				var cl opClient = c.nodes[issuer]
				if s.session != nil {
					cl, issuer = s.session, -1
				}
				octx := ctx
				if traced {
					tr = opTracer{}
					octx = obs.WithTracer(ctx, &tr)
				}
				sp := doOp(octx, cl, op, s.client, chk, start)
				sp.Client, sp.Issuer = s.client, issuer
				sp.KTS, sp.Probe, sp.Lookup = tr.kts, tr.probe, tr.lookup
				// An op belongs to the window it completed in; one that
				// straddles the end of the phase counts in the last.
				w := int((sp.Start + sp.Lat) / out.width)
				if w >= nwin {
					w = nwin - 1
				}
				wins[w].add(sp)
				if traced {
					spans = append(spans, sp)
				}
			}
			mu.Lock()
			for i := range wins {
				out.windows[i].merge(&wins[i])
			}
			out.spans = append(out.spans, spans...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// opClient is what a load client issues through: a Node, a SimNetwork or
// a Session over a Gateway.
type opClient interface {
	Put(ctx context.Context, key dcdht.Key, data []byte, opts ...dcdht.OpOption) (dcdht.Result, error)
	Get(ctx context.Context, key dcdht.Key, opts ...dcdht.OpOption) (dcdht.Result, error)
}

// doOp issues one op through cl, times the client call alone (payload
// building and output checks stay outside the timed section), checks the
// output and returns the op's span. writer identifies the issuing client
// in put payloads; base is the instant span starts are measured from.
func doOp(ctx context.Context, cl opClient, op genOp, writer int, chk *checker, base time.Time) span {
	key, name := op.Key, keyName(op.Key)
	sp := span{ID: op.Seq, Kind: op.Kind, Level: op.Level, Key: key}
	if op.Kind == opPut {
		id := writeID{Writer: writer, Seq: op.Seq}
		data := makePayload(name, id)
		began := time.Now()
		res, err := cl.Put(ctx, name, data)
		sp.Start, sp.Lat, sp.Reported = began.Sub(base), time.Since(began), res.Elapsed
		sp.Msgs, sp.Stored = res.Msgs, res.Stored
		if err != nil {
			sp.Failed = true
			chk.putFailed(key)
			return sp
		}
		chk.putAcked(key, id, res)
		return sp
	}
	var floor dcdht.Timestamp
	if op.Level == dht.LevelCurrent {
		floor = chk.floor(key, writer)
	}
	began := time.Now()
	res, err := cl.Get(ctx, name, levelOptions(op.Level)...)
	sp.Start, sp.Lat, sp.Reported = began.Sub(base), time.Since(began), res.Elapsed
	sp.Msgs, sp.Probed = res.Msgs, res.Probed
	switch {
	case err == nil:
		sp.Proven = res.Currency == dcdht.CurrencyProven
		if op.Level == dht.LevelCurrent {
			chk.currentRead(key, floor, res)
		}
	case dcdht.IsNoCurrent(err):
		sp.Stale = true
	default:
		sp.Failed = true
		return sp
	}
	chk.readReturned(key, res)
	return sp
}
