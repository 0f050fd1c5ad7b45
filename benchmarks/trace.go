package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// traceSpan is one op's span tree as written to the trace file. Times
// are microseconds since the traced phase began. Self is the op's time
// its non-overlapping children (kts, probe) do not cover; lookup is
// nested inside them, so it is listed with Nested set and not subtracted.
type traceSpan struct {
	ID       string       `json:"id"` // client/sequence: unique within the run
	Kind     string       `json:"kind"`
	Level    string       `json:"level,omitempty"`
	Key      string       `json:"key"`
	Issuer   int          `json:"issuer"`
	StartUS  float64      `json:"start_us"`
	EndUS    float64      `json:"end_us"`
	SelfUS   float64      `json:"self_us"`
	Failed   bool         `json:"failed,omitempty"`
	Stale    bool         `json:"stale,omitempty"`
	Msgs     int          `json:"msgs"`
	Children []traceChild `json:"children,omitempty"`
}

type traceChild struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	DurUS  float64 `json:"dur_us"`
	Nested bool    `json:"nested,omitempty"`
}

func toTraceSpan(sp span) traceSpan {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	t := traceSpan{
		ID:      fmt.Sprintf("%d/%d", sp.Client, sp.ID),
		Kind:    sp.Kind.String(),
		Key:     string(keyName(sp.Key)),
		Issuer:  sp.Issuer,
		StartUS: us(int64(sp.Start)),
		EndUS:   us(int64(sp.Start + sp.Lat)),
		SelfUS:  us(int64(sp.Lat - sp.KTS - sp.Probe)),
		Failed:  sp.Failed,
		Stale:   sp.Stale,
		Msgs:    sp.Msgs,
	}
	if sp.Kind == opGet {
		t.Level = sp.Level.String()
	}
	for _, c := range []traceChild{
		{"kts", t.ID, us(int64(sp.KTS)), false},
		{"probe", t.ID, us(int64(sp.Probe)), false},
		{"lookup", t.ID, us(int64(sp.Lookup)), true},
	} {
		if c.DurUS > 0 {
			t.Children = append(t.Children, c)
		}
	}
	return t
}

// writeTrace writes every traceEveryNth op's tree, in start order, to
// <outDir>/trace-<workload>.jsonl. Spans were kept in memory during the
// run; this is the only point they touch the disk.
func writeTrace(o runOpts, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path := filepath.Join(o.outDir, "trace-"+o.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < len(spans) && err == nil; i += traceEveryNth {
		err = enc.Encode(toTraceSpan(spans[i]))
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
