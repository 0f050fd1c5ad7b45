package exp

import (
	"os"
	"strings"
	"testing"
)

// runFigure runs a registered figure at o's scale with sets applied.
func runFigure(t *testing.T, name string, o Options, sets ...string) ([]*Table, Document) {
	t.Helper()
	f := FigureNamed(name)
	if f == nil {
		t.Fatalf("no figure %q", name)
	}
	run, err := f.Prepare(o, sets)
	if err != nil {
		t.Fatal(err)
	}
	tables, doc, err := run()
	if err != nil {
		t.Fatalf("figure %s: %v", name, err)
	}
	return tables, doc
}

func TestFigureNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Figures {
		if seen[f.Name] {
			t.Errorf("figure %q registered twice", f.Name)
		}
		seen[f.Name] = true
		if FigureNamed(f.Name) != f {
			t.Errorf("FigureNamed(%q) does not return its entry", f.Name)
		}
	}
}

// TestDocumentFiguresHaveChecks: the figures that write a document are
// exactly the expected ones, each one's check rejects an empty document,
// and the committed baselines pass their figure's check.
func TestDocumentFiguresHaveChecks(t *testing.T) {
	want := map[string]string{
		"repair": "[]", "workload": "[]", "scenario": "[]", "consistency": "[]",
		"gateway": "{}", "lookup": "{}", "perf": "{}", "recovery": "[]",
	}
	for _, f := range Figures {
		empty, writes := want[f.Name]
		if f.Writes() != writes {
			t.Errorf("figure %s: Writes() = %v, want %v", f.Name, f.Writes(), writes)
			continue
		}
		if !writes {
			if err := f.Check([]byte("{}")); err == nil {
				t.Errorf("figure %s writes no document yet checked one", f.Name)
			}
			continue
		}
		if err := f.Check([]byte(empty)); err == nil {
			t.Errorf("figure %s accepted an empty document", f.Name)
		}
		if err := f.Check([]byte("null")); err == nil {
			t.Errorf("figure %s accepted a null document", f.Name)
		}
		committed, err := os.ReadFile("../../BENCH_" + f.Name + ".json")
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Check(committed); err != nil {
			t.Errorf("committed BENCH_%s.json fails its check: %v", f.Name, err)
		}
	}
}

// TestPrepareRejectsBadSets: an unknown key or a malformed value is an
// error that names the figure and lists its parameters.
func TestPrepareRejectsBadSets(t *testing.T) {
	for _, tc := range []struct{ fig, set, want string }{
		{"perf", "bogus=1", `unknown parameter "bogus"`},
		{"perf", "macro_ops=many", "macro_ops"},
		{"lookup", "peers=10,-3", "peers"},
		{"lookup", "peers", "not key=value"},
	} {
		_, err := FigureNamed(tc.fig).Prepare(Options{}, []string{tc.set})
		if err == nil {
			t.Errorf("%s -set %s accepted", tc.fig, tc.set)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, tc.want) || !strings.Contains(msg, "figure "+tc.fig) {
			t.Errorf("%s -set %s: error %q does not name %q and the figure", tc.fig, tc.set, msg, tc.want)
		}
		for _, key := range []string{"ops=", "peers=", "macro_ops="} {
			if tc.fig == "perf" && !strings.Contains(msg, key) {
				t.Errorf("%s -set %s: error %q does not list parameter %s", tc.fig, tc.set, msg, key)
			}
		}
	}
	if _, err := FigureNamed("7").Prepare(Options{}, []string{"peers=3"}); err == nil ||
		!strings.Contains(err.Error(), "no parameters") {
		t.Errorf("figure 7 -set peers=3: err = %v, want one saying it has no parameters", err)
	}
}

// TestDefaultsFollowScale: a parameter's default is its quick value,
// or its full value under Options.Full.
func TestDefaultsFollowScale(t *testing.T) {
	for _, tc := range []struct {
		full bool
		want string
	}{{false, "\n  peers=48\t"}, {true, "\n  peers=1000\t"}} {
		_, err := FigureNamed("perf").Prepare(Options{Full: tc.full}, []string{"bogus=1"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("full=%v: parameter listing %v does not show %q", tc.full, err, tc.want)
		}
	}
}

// TestExplicitZeroHonoured: a default is only an initial value, so an
// explicit zero means zero — macro_ops=0 skips the macro point.
func TestExplicitZeroHonoured(t *testing.T) {
	if fig := tinyPerf(t, 11, "macro_ops=0"); fig.Macro != nil {
		t.Fatalf("macro_ops=0 still ran a macro point: %+v", *fig.Macro)
	}
}
