// Package workload is the deterministic load-generation engine: it
// turns a Spec (key-popularity pattern, read/write mix, driver shape)
// into a reproducible operation stream and drives it against any
// dht.Ops (Insert, and Retrieve at the level each read drew) — a peer
// stack, the gateway or a public client; the same spec replays
// bit-identically on the
// simulated network and generates real load on a TCP ring. Results are
// collected into log-bucketed latency histograms (internal/stats) and
// reported with per-op-type quantiles, throughput, error and staleness
// counts.
//
// The paper evaluates UMS under a single synthetic access pattern
// (uniform queries over a small working set); this package adds the
// YCSB-style axes DHT storage evaluations ask for — skewed key
// popularity, read-heavy vs write-heavy mixes, update hot spots and
// read-latest scans — so performance claims can be checked under
// realistic traffic, not just the paper's fixed figures.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
)

// Pattern names a key-popularity pattern.
type Pattern string

// The built-in patterns. Reads and writes draw keys as follows:
//
//   - Uniform: both uniform over the keyspace — the paper's own access
//     model, the baseline.
//   - Zipf: both Zipf-distributed with skew Spec.ZipfS, so a few hot
//     keys absorb most traffic (YCSB's "zipfian" request distribution).
//   - HotKeyUpdate: writes hammer a small hot set (1/20th of the
//     keyspace, at least one key) while reads stay uniform — stresses
//     KTS timestamp generation and replica freshness on contended keys.
//   - ScanRecent: writes walk the keyspace round-robin (a steady insert
//     stream) and reads prefer the most recently written keys (YCSB's
//     "latest" distribution) — stresses currency of fresh updates.
const (
	Uniform      Pattern = "uniform"
	Zipf         Pattern = "zipf"
	HotKeyUpdate Pattern = "hotkey-update"
	ScanRecent   Pattern = "scan-recent"
)

// Patterns lists the built-in patterns in plotting order.
func Patterns() []Pattern { return []Pattern{Uniform, Zipf, HotKeyUpdate, ScanRecent} }

// ParsePattern validates a pattern name from a CLI flag.
func ParsePattern(s string) (Pattern, error) {
	for _, p := range Patterns() {
		if s == string(p) {
			return p, nil
		}
	}
	return "", fmt.Errorf("workload: unknown pattern %q (want uniform, zipf, hotkey-update or scan-recent)", s)
}

// Spec is one workload configuration. The zero value is usable: it
// resolves to a uniform pattern with a 90% read mix, 50 keys, 8
// closed-loop workers and a 500-operation run.
type Spec struct {
	// Pattern selects the key-popularity pattern. Default Uniform.
	Pattern Pattern
	// Keys is the keyspace size. Default 50.
	Keys int
	// KeyPrefix namespaces the workload's keys. Default "wl-".
	KeyPrefix string
	// ReadRatio is the fraction of operations that are reads, clamped
	// to [0, 1]. nil selects 0.9 (a read-heavy mix); use a pointer so 0
	// — a pure write workload — stays expressible (dcdht.Float(0)).
	ReadRatio *float64
	// ZipfS is the Zipf skew exponent s for the Zipf pattern; larger is
	// more skewed. Values at or below 1 are clamped to 1.01 (math/rand's
	// Zipf generator requires s > 1). Default 1.1.
	ZipfS float64
	// DataSize is the value payload in bytes. Default 1000 (Table 1).
	DataSize int
	// Seed makes the operation stream reproducible. Default 1 (0 means
	// "unset", matching SimConfig.Seed).
	Seed int64
	// Concurrency is the closed-loop worker count. Default 8. Ignored
	// when Rate selects the open-loop driver.
	Concurrency int
	// Rate, when positive, selects the open-loop driver: operations are
	// issued at this target rate (ops per second of environment time —
	// simulated seconds under simulation, wall seconds over TCP)
	// regardless of completions, exposing queueing delay that a
	// closed-loop driver hides.
	Rate float64
	// Ops bounds the run by operation count; Duration bounds it by
	// environment time. Either may be set (whichever trips first stops
	// the run); when both are zero, Ops defaults to 500.
	Ops      int
	Duration time.Duration
	// EventualFrac and BoundedFrac shape the read consistency mix: the
	// fraction of reads issued at Eventual and Bounded consistency
	// respectively; the remainder runs provably current. Negative
	// values are clamped to 0; fractions summing past 1 are scaled
	// down proportionally. A 90%-eventual / 10%-current hot-read mix is
	// {EventualFrac: 0.9}.
	EventualFrac float64
	BoundedFrac  float64
	// Bound is the staleness bound for Bounded-consistency reads.
	// Default 5 minutes of environment time.
	Bound time.Duration
	// SkipPreload skips the initial untimed insert of every key. By
	// default the keyspace is preloaded so reads never miss on an empty
	// store.
	SkipPreload bool
	// Trace records the issued operation sequence into Report.Trace —
	// used by the determinism tests; costs memory proportional to Ops.
	Trace bool
}

// resolve fills defaults, returning a fully-specified copy.
func (s Spec) resolve() Spec {
	if s.Pattern == "" {
		s.Pattern = Uniform
	}
	if s.Keys <= 0 {
		s.Keys = 50
	}
	if s.KeyPrefix == "" {
		s.KeyPrefix = "wl-"
	}
	if s.ReadRatio == nil {
		r := 0.9
		s.ReadRatio = &r
	} else if *s.ReadRatio < 0 || *s.ReadRatio > 1 {
		r := *s.ReadRatio
		if r < 0 {
			r = 0
		} else {
			r = 1
		}
		s.ReadRatio = &r
	}
	if s.ZipfS <= 1 {
		if s.ZipfS == 0 {
			s.ZipfS = 1.1
		} else {
			s.ZipfS = 1.01
		}
	}
	if s.DataSize <= 0 {
		s.DataSize = 1000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Concurrency <= 0 {
		s.Concurrency = 8
	}
	if s.Ops <= 0 && s.Duration <= 0 {
		s.Ops = 500
	}
	if s.EventualFrac < 0 {
		s.EventualFrac = 0
	}
	if s.BoundedFrac < 0 {
		s.BoundedFrac = 0
	}
	if sum := s.EventualFrac + s.BoundedFrac; sum > 1 {
		s.EventualFrac /= sum
		s.BoundedFrac /= sum
	}
	if s.Bound == 0 {
		s.Bound = 5 * time.Minute
	}
	return s
}

// mixed reports whether the spec asks for a non-default read
// consistency mix.
func (s Spec) mixed() bool { return s.EventualFrac > 0 || s.BoundedFrac > 0 }

// readRatio returns the resolved read fraction.
func (s Spec) readRatio() float64 { return *s.ReadRatio }

// OpKind distinguishes reads from writes.
type OpKind uint8

// The two operation kinds.
const (
	OpGet OpKind = iota
	OpPut
)

// String returns "get" or "put".
func (k OpKind) String() string {
	if k == OpPut {
		return "put"
	}
	return "get"
}

// Op is one generated operation: its position in the stream, its kind,
// its key and — for reads under a consistency mix — the consistency
// level it is issued at. Payloads are derived deterministically from
// (Key, Seq) by the driver, so an Op sequence fully determines a run's
// inputs.
type Op struct {
	Seq   int
	Kind  OpKind
	Key   core.Key
	Level dht.Level
}

// recentWindow bounds how far back the ScanRecent read bias looks.
const recentWindow = 16

// Generator produces the deterministic operation stream for a Spec. It
// consumes a single seeded RNG in Next-call order, so two generators
// built from the same spec emit identical sequences; callers that share
// one across workers must serialize Next (the drivers do).
type Generator struct {
	spec Spec
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int
	hot  int   // hot-set size for HotKeyUpdate
	next int   // round-robin write cursor for ScanRecent
	rec  []int // most recently written key indices, newest last
}

// NewGenerator builds a generator for spec (defaults resolved).
func NewGenerator(spec Spec) *Generator {
	spec = spec.resolve()
	rng := rand.New(rand.NewSource(spec.Seed))
	g := &Generator{
		spec: spec,
		rng:  rng,
		zipf: rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Keys-1)),
		hot:  spec.Keys / 20,
	}
	if g.hot < 1 {
		g.hot = 1
	}
	if !spec.SkipPreload {
		// The driver preloads keys 0..Keys-1 in order before the
		// measured run; seed the recency window to match so ScanRecent
		// reads are well-defined from the first operation.
		for i := 0; i < spec.Keys; i++ {
			g.noteWrite(i)
		}
		g.next = 0
	}
	return g
}

// Spec returns the generator's resolved spec.
func (g *Generator) Spec() Spec { return g.spec }

// Next returns the next operation of the stream.
func (g *Generator) Next() Op {
	op := Op{Seq: g.seq}
	g.seq++
	if g.rng.Float64() < g.spec.readRatio() {
		op.Kind = OpGet
		op.Key = g.key(g.readIndex())
		op.Level = g.readLevel()
		return op
	}
	op.Kind = OpPut
	op.Key = g.key(g.writeIndex())
	return op
}

// readLevel draws the consistency level for a read per the spec's mix.
// A mix-free spec consumes no randomness here, so legacy specs keep
// their exact historical operation streams.
func (g *Generator) readLevel() dht.Level {
	if !g.spec.mixed() {
		return dht.LevelCurrent
	}
	draw := g.rng.Float64()
	switch {
	case draw < g.spec.EventualFrac:
		return dht.LevelEventual
	case draw < g.spec.EventualFrac+g.spec.BoundedFrac:
		return dht.LevelBounded
	default:
		return dht.LevelCurrent
	}
}

// readIndex draws the key index for a read.
func (g *Generator) readIndex() int {
	switch g.spec.Pattern {
	case Zipf:
		return int(g.zipf.Uint64())
	case ScanRecent:
		if len(g.rec) == 0 {
			return g.rng.Intn(g.spec.Keys)
		}
		// Geometric bias toward the newest write: step back one recency
		// slot with probability 1/2, bounded by the window.
		back := 0
		for back < len(g.rec)-1 && g.rng.Float64() < 0.5 {
			back++
		}
		return g.rec[len(g.rec)-1-back]
	default: // Uniform, HotKeyUpdate
		return g.rng.Intn(g.spec.Keys)
	}
}

// writeIndex draws the key index for a write and records it for the
// recency window.
func (g *Generator) writeIndex() int {
	var i int
	switch g.spec.Pattern {
	case Zipf:
		i = int(g.zipf.Uint64())
	case HotKeyUpdate:
		i = g.rng.Intn(g.hot)
	case ScanRecent:
		i = g.next
		g.next = (g.next + 1) % g.spec.Keys
	default: // Uniform
		i = g.rng.Intn(g.spec.Keys)
	}
	g.noteWrite(i)
	return i
}

// noteWrite appends i to the recency window.
func (g *Generator) noteWrite(i int) {
	g.rec = append(g.rec, i)
	if len(g.rec) > recentWindow {
		g.rec = g.rec[1:]
	}
}

// key renders the key for index i.
func (g *Generator) key(i int) core.Key {
	return core.Key(fmt.Sprintf("%s%04d", g.spec.KeyPrefix, i))
}

// Payload builds the deterministic value for op: the key and sequence
// number stamped into a buffer of the spec's DataSize.
func (g *Generator) Payload(op Op) []byte {
	b := make([]byte, g.spec.DataSize)
	copy(b, fmt.Sprintf("%s#%d", op.Key, op.Seq))
	return b
}
