package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// measured is one metric's value with what backs it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (ops for latencies and
	// per-op means, windows for throughput); 0 when it is a plain count.
	N int `json:"n,omitempty"`
	// Spread is the inter-quartile distance of the per-window values as a
	// share of their median; 0 when the value is not windowed.
	Spread float64 `json:"spread,omitempty"`
}

// provenance says where a result came from, so two result files are only
// compared knowingly.
type provenance struct {
	Commit     string `json:"commit"`
	When       string `json:"when"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Smoke      bool   `json:"smoke,omitempty"`
	Clients    int    `json:"clients"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Fsync      string `json:"fsync_policy"`
	TempFS     string `json:"temp_dir_filesystem"`
	Network    string `json:"network"`
	// GateRounds and GateRetries record how the readiness gate of the
	// measured ring went (TCP workloads).
	GateRounds  int `json:"gate_rounds,omitempty"`
	GateRetries int `json:"gate_retries,omitempty"`
	// FallbackPorts counts nodes that could not bind their fixed port; a
	// non-zero count means this run measured a different ring topology.
	FallbackPorts int `json:"fallback_ports,omitempty"`
}

// result is one run of one workload: what the last stdout line reports
// plus provenance, sample counts and spreads. `compare` reads files of
// these, one JSON object per line.
type result struct {
	Provenance provenance          `json:"provenance"`
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Violations []string            `json:"violations,omitempty"`
	Metrics    map[string]measured `json:"metrics"`
	// Extra holds numbers printed for the reader but outside the declared
	// metric list of this mode (e.g. the get/put split on an untraced run).
	Extra map[string]measured `json:"extra,omitempty"`
	// Windows holds the per-window values behind the windowed metrics.
	Windows map[string][]float64 `json:"windows,omitempty"`
	// Replay is the digest of sim-wan's deterministic fields.
	Replay string `json:"replay_digest,omitempty"`
}

func newProvenance(o runOpts, tmp string) provenance {
	return provenance{
		Commit:     gitCommit(),
		When:       time.Now().UTC().Format(time.RFC3339),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
		Smoke:      o.smoke,
		Clients:    loadClients,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Fsync:      fsyncPolicy.String(),
		TempFS:     filesystemOf(tmp),
		Network:    "loopback, no injected delay",
	}
}

// gitCommit names the measured commit when the checkout is a git
// repository; the driver's checkouts are not.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// filesystemOf returns the type of the filesystem dir lives on, from the
// longest matching mount point in /proc/mounts.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// appendResult appends r to the JSON-lines file at path.
func appendResult(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write result %s: %w", path, err)
	}
	return nil
}

// readResults reads a JSON-lines result file.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("read results %s line %d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read results %s: %w", path, err)
	}
	return out, nil
}

// driverLine is the last stdout line the driver parses: exactly these
// keys, and per metric exactly value and unit.
func driverLine(r *result) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line) // fails on a NaN or infinite value
	if err != nil {
		return "", fmt.Errorf("result line: %w", err)
	}
	return string(b), nil
}

// printTable writes metrics in the declared order of defs, then any
// extras sorted by name.
func printTable(r *result, defs []metricDef) {
	fmt.Printf("%-34s %14s %-6s %8s %8s\n", "metric", "value", "unit", "n", "spread")
	row := func(name string, m measured) {
		n, sp := "", ""
		if m.N > 0 {
			n = fmt.Sprint(m.N)
		}
		if m.Spread > 0 {
			sp = fmt.Sprintf("%.1f%%", 100*m.Spread)
		}
		fmt.Printf("%-34s %14.4f %-6s %8s %8s\n", name, m.Value, m.Unit, n, sp)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			row(d.Name, m)
		}
	}
	names := make([]string, 0, len(r.Extra))
	for name := range r.Extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row("("+name+")", r.Extra[name])
	}
}
