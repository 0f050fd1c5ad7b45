package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
)

// Options scales the figures. Quick mode (the default) runs scaled-down
// peer counts and windows so every figure regenerates in minutes; Full
// mode reproduces the paper's axes (10,000 peers, 3-hour windows).
type Options struct {
	Full bool
	Seed int64
	// Progress receives per-run progress lines when non-nil.
	Progress func(string)
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// basePeers is the fixed population for the non-scale figures.
func (o Options) basePeers() int { return pick(o, 1000, 10000) }

// compress is the time-compression factor of quick mode: the paper's
// 3-hour workload is squeezed into 30 minutes by scaling the churn and
// update rates 6x while leaving the network model untouched, so per-key
// turnover and staleness match the paper's conditions and response
// times stay directly comparable.
func (o Options) compress() float64 { return pick(o, 6.0, 1) }

// churnFor returns the departure rate for a population. Full mode uses
// Table 1's absolute λ = 1/s (the paper runs 2000–10000 peers). Quick
// mode keeps the same per-capita churn — 1/s at 10000 peers — because an
// absolute 1/s on a few hundred peers recycles the whole network several
// times per experiment, which the paper's populations never experience;
// the quick-mode rate is then time-compressed (see compress).
func (o Options) churnFor(peers int) float64 {
	if o.Full {
		return 1
	}
	return float64(peers) / 10000 * o.compress()
}

func (o Options) duration() time.Duration { return pick(o, 30*time.Minute, 3*time.Hour) }

// table1 is Table 1's workload at o's scale: the paper's window, churn
// and update rates, time-compressed in quick mode.
func (o Options) table1(alg Algorithm, peers int) Scenario {
	sc := Table1Scenario(alg, peers, o.Seed)
	sc.Duration = o.duration()
	sc.ChurnRate = o.churnFor(peers)
	sc.UpdateRate *= o.compress()
	return sc
}

// A sweep is one of §5's figures: a scenario run per axis point and
// algorithm, tabulated as one column per algorithm. Figures 7 and 8 are
// one sweep read as response time and as messages, and so are 9 and 10;
// a sweep remembers its last runs so the second reading costs nothing.
type sweep struct {
	name   string // prefixes each run's scenario name
	where  string // the titles' parenthetical; "" names the base population
	xlabel string
	algs   []Algorithm
	// quick and full are the axis; a nil full keeps quick's.
	quick, full []float64
	setup       func(o Options, alg Algorithm, x float64) Scenario
	notes       []string

	mu   sync.Mutex
	memo map[sweepKey][]sweepCell
}

type sweepKey struct {
	full bool
	seed int64
}

type sweepCell struct {
	x          string
	alg        Algorithm
	resp, msgs float64
}

var (
	clusterSweep = &sweep{
		name: "fig6", where: "cluster profile", xlabel: "peers", algs: Algorithms,
		quick: []float64{10, 20, 30, 40, 50, 60},
		// The cluster experiment (§5.2 "Experimental Results"): the
		// cluster network profile replaces Table 1's WAN model, exactly
		// as the paper's 1 Gbps cluster replaced the simulated network.
		setup: func(o Options, alg Algorithm, n float64) Scenario {
			sc := Table1Scenario(alg, int(n), o.Seed)
			sc.UseCluster()
			sc.Duration = 10 * time.Minute
			sc.Warmup = 30 * time.Second
			sc.Queries = 60 // cheap on a LAN; averages out churn spikes
			// A 64-node cluster sees occasional restarts, not Table 1's
			// planetary churn.
			sc.ChurnRate = 0.005
			return sc
		},
		notes: []string{
			"cluster profile: ~0.3ms LAN latency instead of Table 1's 200ms WAN model",
			"paper shape: BRK > UMS-Indirect > UMS-Direct, logarithmic growth"},
	}
	scaleSweep = &sweep{
		name: "fig7+8", where: "simulation", xlabel: "peers", algs: Algorithms,
		quick: []float64{250, 500, 1000, 2000},
		full:  []float64{2000, 4000, 6000, 8000, 10000},
		setup: func(o Options, alg Algorithm, n float64) Scenario { return o.table1(alg, int(n)) },
		notes: []string{"paper shape: logarithmic growth; BRK highest, UMS-Direct lowest"},
	}
	replicaSweep = &sweep{
		name: "fig9+10", xlabel: "replicas", algs: Algorithms,
		quick: []float64{5, 10, 20, 40},
		full:  []float64{5, 10, 15, 20, 25, 30, 35, 40},
		setup: func(o Options, alg Algorithm, hr float64) Scenario {
			sc := o.table1(alg, o.basePeers())
			sc.Replicas = int(hr)
			return sc
		},
		notes: []string{"paper shape: strong growth for BRK, slight for UMS-Indirect, flat for UMS-Direct"},
	}
	failureSweep = &sweep{
		name: "fig11", xlabel: "fail%", algs: Algorithms,
		quick: []float64{5, 20, 50, 90},
		full:  []float64{5, 10, 20, 30, 40, 50, 60, 70, 80, 90},
		setup: func(o Options, alg Algorithm, fr float64) Scenario {
			sc := o.table1(alg, o.basePeers())
			sc.FailRate = fr / 100
			return sc
		},
		notes: []string{"paper shape: all rise with failures; UMS-Direct converges to UMS-Indirect at high rates"},
	}
	// Figure 12 plots the two UMS variants only; the paper omits BRK.
	updateSweep = &sweep{
		name: "fig12", xlabel: "upd/h", algs: []Algorithm{AlgUMSIndirect, AlgUMSDirect},
		quick: []float64{0.0625, 0.125, 0.25, 0.5, 1, 2, 4},
		setup: func(o Options, alg Algorithm, uf float64) Scenario {
			sc := o.table1(alg, o.basePeers())
			sc.UpdateRate = uf * o.compress()
			return sc
		},
		notes: []string{"paper shape: response time falls as updates become more frequent (fresher replicas => higher pt)"},
	}
)

// cells runs the sweep at o's scale, or returns its remembered runs.
func (s *sweep) cells(o Options) []sweepCell {
	key := sweepKey{o.Full, o.Seed}
	s.mu.Lock()
	cells, ok := s.memo[key]
	s.mu.Unlock()
	if ok {
		return cells
	}
	axis := s.quick
	if o.Full && s.full != nil {
		axis = s.full
	}
	for _, x := range axis {
		for _, alg := range s.algs {
			sc := s.setup(o, alg, x)
			sc.Name = s.name + "/" + string(alg)
			r := Run(sc)
			c := sweepCell{x: fmt.Sprintf("%g", x), alg: alg, resp: r.RespTime.Mean(), msgs: r.Msgs.Mean()}
			cells = append(cells, c)
			o.progress("%-24s x=%-6s resp=%6.2fs msgs=%5.1f probes=%4.2f current=%.0f%% churn=%d",
				sc.Name, c.x, c.resp, c.msgs, r.Probed.Mean(),
				100*r.CurrentRate, r.ChurnEvents)
		}
	}
	s.mu.Lock()
	if s.memo == nil {
		s.memo = map[sweepKey][]sweepCell{}
	}
	s.memo[key] = cells
	s.mu.Unlock()
	return cells
}

// figure returns the run of one figure read off the sweep: response
// time, or messages per retrieve when msgs is set.
func (s *sweep) figure(title string, msgs bool) func(Options) []*Table {
	return func(o Options) []*Table {
		where := s.where
		if where == "" {
			where = fmt.Sprintf("%d peers", o.basePeers())
		}
		ylabel := "response time (s)"
		if msgs {
			ylabel = "messages per retrieve"
		}
		series := make([]string, len(s.algs))
		for i, a := range s.algs {
			series[i] = string(a)
		}
		t := NewTable(title+" ("+where+")", s.xlabel, ylabel, series)
		for _, c := range s.cells(o) {
			v := c.resp
			if msgs {
				v = c.msgs
			}
			t.Set(c.x, string(c.alg), v)
		}
		t.Notes = s.notes
		return []*Table{t}
	}
}

// An ablation isolates one design decision DESIGN.md §6 calls out: one
// run of Table 1's workload per variant, tabulated as a row per variant
// and a column per measurement.
type ablation struct {
	name, title, xlabel, ylabel string
	alg                         Algorithm
	variants                    []variant
	cols                        []column
	notes                       []string
}

type variant struct {
	x   string
	set func(*Scenario)
}

type column struct {
	name string
	of   func(*Result) float64
}

func respTime(r *Result) float64      { return r.RespTime.Mean() }
func msgsPerQuery(r *Result) float64  { return r.Msgs.Mean() }
func staleReturns(r *Result) float64  { return float64(r.StaleReturns) }
func failedQueries(r *Result) float64 { return float64(r.QueriesFailed) }

var ablations = []ablation{{
	// RLA operation (counters survive until responsibility actually
	// moves) against the §4.3 RLU fallback (drop the counter after every
	// generated timestamp): RLU forces an indirect initialization per
	// insert, which the response time of both inserts and retrieves pays.
	name:   "ablation-rlu",
	title:  "Ablation (§4.3): RLA vs RLU counter management (UMS-Direct)",
	xlabel: "mode", ylabel: "per-retrieve cost", alg: AlgUMSDirect,
	variants: []variant{
		{"RLA (normal)", func(*Scenario) {}},
		{"RLU fallback", func(sc *Scenario) { sc.KTS.RLU = true }},
	},
	cols: []column{{"resp (s)", respTime}, {"msgs", msgsPerQuery}, {"stale returns", staleReturns}},
	notes: []string{
		"RLU is the fallback for DHTs that cannot detect responsibility loss (§4.3);",
		"Chord and CAN are RLA, so the fallback only costs — it never helps them"},
}, {
	// Chord's successor-list length under an elevated failure rate: the
	// list is the ring's failure budget, and retrieval reliability
	// collapses when it is too short.
	name:   "ablation-succs",
	title:  "Ablation: Chord successor-list length under 50% failures (UMS-Direct)",
	xlabel: "list len", ylabel: "reliability", alg: AlgUMSDirect,
	variants: []variant{
		{"2", func(sc *Scenario) { sc.FailRate, sc.Chord.SuccessorListLen = 0.5, 2 }},
		{"4", func(sc *Scenario) { sc.FailRate, sc.Chord.SuccessorListLen = 0.5, 4 }},
		{"8", func(sc *Scenario) { sc.FailRate, sc.Chord.SuccessorListLen = 0.5, 8 }},
		{"16", func(sc *Scenario) { sc.FailRate, sc.Chord.SuccessorListLen = 0.5, 16 }},
	},
	cols: []column{{"resp (s)", respTime}, {"failed queries", failedQueries}, {"stale returns", staleReturns}},
}, {
	// The paper's DHT model (replicas do NOT move with responsibility;
	// availability decays between updates) against the graceful handoff
	// this library does by default: how much currency the handoff buys,
	// and why the paper's probabilistic analysis assumes pt < 1.
	name:   "ablation-handoff",
	title:  "Ablation: replica handoff on responsibility change (UMS-Direct)",
	xlabel: "data model", ylabel: "effect", alg: AlgUMSDirect,
	variants: []variant{
		{"paper model (no handoff)", func(*Scenario) {}},
		{"with handoff", func(sc *Scenario) { sc.NoDataHandoff = false }},
	},
	cols: []column{
		{"resp (s)", respTime},
		{"probes", func(r *Result) float64 { return r.Probed.Mean() }},
		{"current %", func(r *Result) float64 { return 100 * r.CurrentRate }},
	},
	notes: []string{
		"the paper's model loses a replica whenever its responsible departs;",
		"handing replicas over on graceful leaves keeps pt near 1 between updates"},
}}

// ablationTables runs every ablation at o's scale.
func ablationTables(o Options) []*Table {
	var out []*Table
	for _, a := range ablations {
		series := make([]string, len(a.cols))
		for i, c := range a.cols {
			series[i] = c.name
		}
		t := NewTable(a.title, a.xlabel, a.ylabel, series)
		for _, v := range a.variants {
			sc := o.table1(a.alg, o.basePeers())
			sc.Name = a.name + "=" + v.x
			v.set(&sc)
			r := Run(sc)
			line := []string{fmt.Sprintf("%-32s", sc.Name)}
			for _, c := range a.cols {
				t.Set(v.x, c.name, c.of(r))
				line = append(line, fmt.Sprintf("%s=%.2f", c.name, c.of(r)))
			}
			o.progress("%s", strings.Join(line, " "))
		}
		t.Notes = a.notes
		out = append(out, t)
	}
	return out
}

// analysisTables tabulates §3.3 — E(X) closed form, the 1/pt bound and a
// Monte Carlo cross-check over pt — and §4.2.2's ps = 1-(1-pt)^|Hr|.
func analysisTables(o Options) []*Table {
	ex := NewTable("Analysis (§3.3): expected replicas retrieved vs pt (|Hr|=10)",
		"pt", "E(X)", []string{"E(X) analytic", "min(1/pt,|Hr|) bound", "Monte Carlo"})
	rng := rand.New(rand.NewSource(o.Seed))
	for _, pt := range []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95} {
		x := fmt.Sprintf("%.2f", pt)
		ex.Set(x, "E(X) analytic", analysis.ExpectedRetrievals(pt, 10))
		ex.Set(x, "min(1/pt,|Hr|) bound", analysis.UpperBound(pt, 10))
		ex.Set(x, "Monte Carlo", analysis.MonteCarloRetrievals(rng, pt, 10, 200000))
	}
	ex.Notes = []string{"paper example: pt=0.35 => E(X) < 3"}

	ps := NewTable("Analysis (§4.2.2): indirect algorithm success probability",
		"pt", "ps", []string{"|Hr|=5", "|Hr|=10", "|Hr|=13", "|Hr|=30"})
	for _, pt := range []float64{0.1, 0.2, 0.3, 0.5, 0.7} {
		x := fmt.Sprintf("%.1f", pt)
		for _, hr := range []int{5, 10, 13, 30} {
			ps.Set(x, fmt.Sprintf("|Hr|=%d", hr), analysis.IndirectSuccessProb(pt, hr))
		}
	}
	ps.Notes = []string{"paper example: pt=0.3, |Hr|=13 => ps > 99%"}
	return []*Table{ex, ps}
}
