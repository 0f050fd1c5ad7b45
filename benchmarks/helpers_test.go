package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	dcdht "repro"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},    // 10 above: just enough
		{999, 0.99, 990, false},    // 9 above
		{2000, 0.999, 1998, false}, // 2 above
		{21, 0.5, 11, true},        // 10 on each side
		{20, 0.5, 10, false},       // 9 below
		{300, 0.95, 285, true},     // 15 above
		{0, 0.5, 0, false},
	} {
		got, ok := quantile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("quantile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if v := quantileOrZero(seq(50), 0.99); v != 0 {
		t.Errorf("unsupported quantile reads %v, want 0", v)
	}
}

// The spreads the benchmark prints must be the ones the driver computes
// with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 8}, 3, 6, 9},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestWindowMedian(t *testing.T) {
	// Five windows, one of them hit by a stall: the median ignores it.
	ph := phaseResult{windows: make([]windowAgg, 5), width: 1e9}
	for w := range ph.windows {
		n := 100
		if w == 2 {
			n = 40
		}
		for i := 0; i < n; i++ {
			ph.windows[w].add(span{Kind: opGet, Lat: 1e6, Msgs: 9})
		}
	}
	res := &result{Metrics: map[string]measured{}}
	endToEndMetrics(res, &ph, []float64{3, 1, 2})
	if got := res.Metrics["ops_per_s"]; got.Value != 100 || got.N != 5 {
		t.Errorf("ops_per_s = %+v, want 100 over 5 windows", got)
	}
	if got := res.Metrics["setup_s"].Value; got != 2 {
		t.Errorf("setup_s = %v, want the median 2", got)
	}
	if got := res.Metrics["msgs_per_op"].Value; got != 9 {
		t.Errorf("msgs_per_op = %v, want 9", got)
	}
	if got := res.Metrics["op_p50_ms"].Value; got != 1 {
		t.Errorf("op_p50_ms = %v, want 1", got)
	}
}

func TestJudgeBothDirections(t *testing.T) {
	for _, tc := range []struct {
		name             string
		better           string
		base, cand       float64
		spreadB, spreadC float64
		want             verdict
	}{
		{"latency up past bound", lower, 100, 111, 0.01, 0.01, verdictWorse},
		{"latency up within bound", lower, 100, 109, 0.01, 0.01, verdictOK},
		{"latency down past bound", lower, 100, 80, 0.01, 0.01, verdictBetter},
		{"throughput down past bound", higher, 100, 89, 0.01, 0.01, verdictWorse},
		{"throughput down within bound", higher, 100, 95, 0.01, 0.01, verdictOK},
		{"throughput up past bound", higher, 100, 120, 0.01, 0.01, verdictBetter},
		{"noisy base", lower, 100, 150, 0.2, 0.01, verdictUnresolved},
		{"noisy candidate", higher, 100, 50, 0.01, 0.11, verdictUnresolved},
	} {
		if got := judge(tc.better, 0.10, tc.base, tc.cand, tc.spreadB, tc.spreadC); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(w string, seed int64, ops, p50 float64, digest string) result {
		r := result{Provenance: provenance{Workload: w, Seed: seed}, Metrics: map[string]measured{}, Replay: digest}
		r.Metrics["ops_per_s"] = measured{Value: ops, Unit: "1/s"}
		r.Metrics["op_p50_ms"] = measured{Value: p50, Unit: "ms"}
		return r
	}
	base := []result{mk(wlReadCurrent, 1, 1000, 1.0, ""), mk(wlReadCurrent, 2, 1010, 1.01, ""), mk(wlSimWAN, 1, 30, 4000, "aa")}
	cand := []result{mk(wlReadCurrent, 1, 600, 1.0, ""), mk(wlReadCurrent, 2, 605, 1.02, ""), mk(wlSimWAN, 1, 30, 4000, "bb")}
	rows, same, diffs := compareSets(base, cand)
	got := map[string]verdict{}
	for _, r := range rows {
		got[r.Workload+"/"+r.Metric] = r.Verdict
	}
	if got[wlReadCurrent+"/ops_per_s"] != verdictWorse || got[wlReadCurrent+"/op_p50_ms"] != verdictOK {
		t.Errorf("verdicts = %v", got)
	}
	if len(same) != 0 || len(diffs) != 1 {
		t.Errorf("replay same %v diffs %v, want one diff", same, diffs)
	}
	// Traced and smoke runs carry no bounds and are left out.
	traced := mk(wlReadCurrent, 1, 1, 1, "")
	traced.Provenance.Traced = true
	if rows, _, _ := compareSets([]result{traced}, []result{traced}); len(rows) != 0 {
		t.Errorf("traced results were compared: %v", rows)
	}
}

func TestOpStreamIdenticalPerSeed(t *testing.T) {
	sp := streamSpec{zipf: true, keys: 50, putEvery: 5, relaxed: true}
	a, b, other, sibling := newOpStream(sp, 7, 0, 0), newOpStream(sp, 7, 0, 0), newOpStream(sp, 8, 0, 0), newOpStream(sp, 7, 0, 1)
	var differsSeed, differsClient bool
	var puts int
	var levels [3]int
	for i := 0; i < 3000; i++ {
		x, y, o := a.next(), b.next(), other.next()
		if x != y {
			t.Fatalf("op %d differs between two streams of one seed: %+v vs %+v", i, x, y)
		}
		// A seed changes keys only: kinds and levels are positional.
		if x.Kind != o.Kind || x.Level != o.Level {
			t.Fatalf("op %d: kind or level depends on the seed: %+v vs %+v", i, x, o)
		}
		differsSeed = differsSeed || x.Key != o.Key
		differsClient = differsClient || x != sibling.next()
		if x.Kind == opPut {
			puts++
		} else {
			levels[x.Level]++
		}
		if x.Key < 0 || x.Key >= sp.keys {
			t.Fatalf("op %d has key %d outside the key space", i, x.Key)
		}
	}
	if !differsSeed || !differsClient {
		t.Errorf("streams do not depend on seed (%v) or client (%v)", differsSeed, differsClient)
	}
	if newOpStream(sp, 7, 1, 0).next().Key == newOpStream(sp, 7, 0, 0).next().Key && newOpStream(sp, 7, 2, 0).next().Key == newOpStream(sp, 7, 0, 0).next().Key {
		t.Error("rounds of one seed replay the same keys")
	}
	if puts != 600 || levels != [3]int{800, 800, 800} {
		t.Errorf("mix is not exact: %d puts, reads by level %v", puts, levels)
	}
	never, always := newOpStream(streamSpec{keys: 5}, 1, 0, 0), newOpStream(streamSpec{keys: 5, putEvery: 1}, 1, 0, 0)
	for i := 0; i < 50; i++ {
		if never.next().Kind != opGet || always.next().Kind != opPut {
			t.Fatal("putEvery 0 must never put and 1 always")
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	key := keyName(17)
	id := writeID{Writer: 1, Seq: 123456}
	data := makePayload(key, id)
	if len(data) != payloadSize {
		t.Fatalf("payload is %d bytes", len(data))
	}
	if got, err := parsePayload(key, data); err != nil || got != id {
		t.Fatalf("parsePayload = %v, %v", got, err)
	}
	if _, err := parsePayload(keyName(18), data); err == nil {
		t.Error("payload accepted for another key")
	}
	torn := append([]byte(nil), data...)
	copy(torn[500:], makePayload(key, writeID{1, 123457})[500:])
	if _, err := parsePayload(key, torn); err == nil {
		t.Error("payload spliced from two writes accepted")
	}
	if _, err := parsePayload(key, data[:payloadSize-1]); err == nil {
		t.Error("short payload accepted")
	}
}

// BENCHMARK.json must be what the tables in spec.go generate, and must
// stay inside the limits of the driver's contract.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("%v (regenerate it with `bash benchmarks/run.sh manifest > BENCHMARK.json`)", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `bash benchmarks/run.sh manifest > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s has %d characters or a newline", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != lower && d.Better != higher) {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound != 0 || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
	}
}

func TestCheckerCatchesWrongOutputs(t *testing.T) {
	// Each case feeds the checker one wrong output and expects exactly
	// one violation.
	for name, feed := range map[string]func(c *checker){
		"too few replicas": func(c *checker) {
			c.putAcked(0, writeID{0, 1}, resultAt(5, 9, nil))
		},
		"timestamp granted twice": func(c *checker) {
			c.putAcked(0, writeID{0, 1}, resultAt(5, replicas, nil))
			c.putAcked(0, writeID{1, 1}, resultAt(5, replicas, nil))
		},
		"writer's timestamps go backwards": func(c *checker) {
			c.putAcked(0, writeID{0, 1}, resultAt(5, replicas, nil))
			c.putAcked(0, writeID{0, 2}, resultAt(4, replicas, nil))
		},
		"current read below an acknowledged put": func(c *checker) {
			c.putAcked(0, writeID{0, 1}, resultAt(5, replicas, nil))
			c.currentRead(0, c.floor(0, 1), resultAt(4, 0, nil))
		},
		"payload of another put": func(c *checker) {
			c.putAcked(0, writeID{0, 1}, resultAt(5, replicas, nil))
			c.readReturned(0, resultAt(5, 0, makePayload(keyName(0), writeID{0, 2})))
		},
		"timestamp nobody was granted": func(c *checker) {
			c.readReturned(0, resultAt(7, 0, makePayload(keyName(0), writeID{0, 1})))
			c.verifyParked()
		},
		"garbage payload": func(c *checker) {
			c.readReturned(0, resultAt(5, 0, []byte("garbage")))
		},
	} {
		c := newChecker(2, false)
		feed(c)
		if len(c.violations) != 1 {
			t.Errorf("%s: violations = %v, want exactly one", name, c.violations)
		}
	}

	// A correct history passes, including a read that overtook its put's
	// acknowledgement and a per-client floor through a gateway.
	c := newChecker(2, true)
	c.readReturned(0, resultAt(5, 0, makePayload(keyName(0), writeID{0, 1}))) // put 5 still in flight
	c.putAcked(0, writeID{0, 1}, resultAt(5, replicas, nil))
	c.putAcked(0, writeID{1, 1}, resultAt(6, replicas, nil))
	c.currentRead(0, c.floor(0, 0), resultAt(5, 0, nil)) // client 0 only promised its own put
	c.verifyParked()
	if len(c.violations) != 0 {
		t.Errorf("correct history flagged: %v", c.violations)
	}
}

func resultAt(ts uint64, stored int, data []byte) (r dcdht.Result) {
	r.TS.Lo, r.Stored, r.Data = ts, stored, data
	return r
}
