package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/perf"
)

// A Document is a figure's machine-readable result: dcdht-bench writes
// it as BENCH_<figure>.json and validate_bench reads it back.
type Document interface {
	// Validate checks the document's schema and the figure's invariants.
	Validate() error
}

// A Figure is one entry of the registry: a name, its parameters with
// their quick and full defaults, its run and — for a figure that writes
// a document — the check of what it wrote.
type Figure struct {
	Name string
	// bind declares the figure's parameters on fs at o's scale and
	// returns the run, which reads them when called.
	bind func(fs *flag.FlagSet, o Options) func() ([]*Table, Document, error)
	// decode reads a written document back; nil for a figure that
	// writes none.
	decode func([]byte) (Document, error)
}

// Figures is the registry, in the order dcdht-bench runs it.
var Figures = []*Figure{
	tables("analysis", analysisTables),
	tables("6", clusterSweep.figure("Figure 6: response time vs peers", false)),
	tables("7", scaleSweep.figure("Figure 7: response time vs peers", false)),
	tables("8", scaleSweep.figure("Figure 8: communication cost vs peers", true)),
	tables("9", replicaSweep.figure("Figure 9: response time vs replicas", false)),
	tables("10", replicaSweep.figure("Figure 10: communication cost vs replicas", true)),
	tables("11", failureSweep.figure("Figure 11: response time vs failure rate", false)),
	tables("12", updateSweep.figure("Figure 12: response time vs update frequency", false)),
	tables("ablations", ablationTables),
	document[RepairPoints, repairParams]("repair"),
	document[WorkloadPoints, workloadParams]("workload"),
	document[ScenarioPoints, scenarioParams]("scenario"),
	document[ConsistencyPoints, consistencyParams]("consistency"),
	document[GatewayResult, gatewayParams]("gateway"),
	document[LookupResult, lookupParams]("lookup"),
	document[perf.Figure, perfParams]("perf"),
	document[RecoveryPoints, recoveryParams]("recovery"),
}

// FigureNamed returns the registered figure with the given name, or nil.
func FigureNamed(name string) *Figure {
	for _, f := range Figures {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Prepare declares the figure's parameters at o's scale, applies each
// "key=value" of sets over their defaults, and returns the run. An
// unknown key or a malformed value is an error listing the figure's
// parameters.
func (f *Figure) Prepare(o Options, sets []string) (func() ([]*Table, Document, error), error) {
	fs := flag.NewFlagSet(f.Name, flag.ContinueOnError)
	run := f.bind(fs, o)
	for _, kv := range sets {
		k, v, ok := strings.Cut(kv, "=")
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("-set %q is not key=value", kv)
		case fs.Lookup(k) == nil:
			err = fmt.Errorf("unknown parameter %q", k)
		default:
			if serr := fs.Set(k, v); serr != nil {
				err = fmt.Errorf("parameter %s=%q: %v", k, v, serr)
			}
		}
		if err != nil {
			var keys strings.Builder
			fs.VisitAll(func(p *flag.Flag) { fmt.Fprintf(&keys, "\n  %s=%s\t%s", p.Name, p.DefValue, p.Usage) })
			if keys.Len() == 0 {
				return nil, fmt.Errorf("figure %s: %v; it has no parameters", f.Name, err)
			}
			return nil, fmt.Errorf("figure %s: %v; its parameters are:%s", f.Name, err, keys.String())
		}
	}
	return run, nil
}

// Writes reports whether the figure writes a document.
func (f *Figure) Writes() bool { return f.decode != nil }

// Check reads a document the figure wrote and validates it. Every
// document is deterministic whole, so drift from a committed baseline
// is a byte compare's job, not Check's.
func (f *Figure) Check(doc []byte) error {
	if f.decode == nil {
		return fmt.Errorf("exp: figure %s writes no document", f.Name)
	}
	d, err := f.decode(doc)
	if err != nil {
		return fmt.Errorf("exp: figure %s: %w", f.Name, err)
	}
	return d.Validate()
}

// tables registers a figure of tables alone, with no parameters.
func tables(name string, run func(Options) []*Table) *Figure {
	return &Figure{Name: name, bind: func(_ *flag.FlagSet, o Options) func() ([]*Table, Document, error) {
		return func() ([]*Table, Document, error) { return run(o), nil, nil }
	}}
}

// params is what a figure with a document declares: its parameters,
// and a run that reads them and returns one table and the document.
type params[D Document] interface {
	declare(fs *flag.FlagSet, o Options)
	run(o Options) (*Table, D, error)
}

// document registers a figure whose parameters are the fields of P and
// whose document is a D; a D has a Validate method by type, so every
// document comes with its check.
func document[D, P any, DP interface {
	*D
	Document
}, PP interface {
	*P
	params[DP]
}](name string) *Figure {
	return &Figure{
		Name: name,
		bind: func(fs *flag.FlagSet, o Options) func() ([]*Table, Document, error) {
			p := PP(new(P))
			p.declare(fs, o)
			return func() ([]*Table, Document, error) {
				t, d, err := p.run(o)
				if err != nil {
					return nil, nil, err
				}
				return []*Table{t}, d, nil
			}
		},
		decode: func(data []byte) (Document, error) {
			d := DP(new(D))
			return d, json.Unmarshal(data, d)
		},
	}
}

// pick returns quick's value in quick mode and full's under -full.
func pick[T any](o Options, quick, full T) T {
	if o.Full {
		return full
	}
	return quick
}

// names splits a comma-separated list, trimming blanks; an empty list
// or "all" selects every name of all.
func names(list string, all []string) []string {
	var out []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	if len(out) == 0 || (len(out) == 1 && out[0] == "all") {
		return all
	}
	return out
}

// intList is a parameter holding a comma-separated list of positive
// integers.
type intList []int

func (l *intList) String() string {
	s := make([]string, len(*l))
	for i, n := range *l {
		s[i] = strconv.Itoa(n)
	}
	return strings.Join(s, ",")
}

func (l *intList) Set(v string) error {
	var out intList
	for _, s := range strings.Split(v, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return fmt.Errorf("%q is not a positive integer", s)
		}
		out = append(out, n)
	}
	*l = out
	return nil
}
