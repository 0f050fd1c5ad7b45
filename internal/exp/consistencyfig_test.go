package exp

import (
	"bytes"
	"encoding/json"
	"testing"
)

// tinyConsistency runs the figure at the toy scale the determinism and
// acceptance assertions use: 6 deployments in well under a second.
func tinyConsistency(t *testing.T) ConsistencyPoints {
	t.Helper()
	_, doc := runFigure(t, "consistency", Options{Seed: 42},
		"peers=40", "queries=24", "duration=8m", "clients=3")
	return *doc.(*ConsistencyPoints)
}

// TestConsistencyFigureDeterminism replays the figure twice on the same
// seed and requires the serialized points to match bit for bit — the
// BENCH_consistency.json a CI run writes is exactly reproducible.
func TestConsistencyFigureDeterminism(t *testing.T) {
	run := func() []byte {
		b, err := json.Marshal(tinyConsistency(t))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different figure JSON:\n%s\n---\n%s", a, b)
	}
}

// TestConsistencyLevelsOrdering is the acceptance criterion in vivo: on
// the same seed, Eventual and Bounded retrieves cost strictly fewer
// messages and strictly fewer last_ts requests than Current, in both
// repair modes, while Current reports Proven for every retrieve that
// found a current replica at all (everything that neither fell back
// stale nor failed).
//
// Response time is not ordered: on these WAN links a Current retrieve
// sends its first probe alongside last_ts, so the KTS round trip the
// weaker levels skip is no longer a round trip in series — Bounded and
// Current come out about even, and Eventual, with no last_ts to cut a
// wait short, may be the slowest. What is checked instead is each
// read's phase ledger: no KTS-free read asked KTS, every read that
// waited on a remote last_ts overlapped its first probe with it, and
// none was slower than its phases in series.
func TestConsistencyLevelsOrdering(t *testing.T) {
	byKey := map[string]ConsistencyPoint{}
	for _, p := range tinyConsistency(t) {
		key := p.Level
		if p.Repair {
			key += "+repair"
		}
		byKey[key] = p
	}
	for _, suffix := range []string{"", "+repair"} {
		cur, ok1 := byKey["current"+suffix]
		bnd, ok2 := byKey["bounded"+suffix]
		ev, ok3 := byKey["eventual"+suffix]
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("missing level points in %v", byKey)
		}
		for _, p := range []ConsistencyPoint{cur, bnd, ev} {
			if p.QueriesRun == 0 {
				t.Fatalf("%s%s ran no queries", p.Level, suffix)
			}
		}
		if !(ev.MsgsPerRetrieve < cur.MsgsPerRetrieve) || !(bnd.MsgsPerRetrieve < cur.MsgsPerRetrieve) {
			t.Errorf("messages%s: eventual %.2f / bounded %.2f not strictly below current %.2f",
				suffix, ev.MsgsPerRetrieve, bnd.MsgsPerRetrieve, cur.MsgsPerRetrieve)
		}
		if !(ev.KTSReqsPerRetrieve == 0 && 0 < bnd.KTSReqsPerRetrieve && bnd.KTSReqsPerRetrieve < cur.KTSReqsPerRetrieve) {
			t.Errorf("last_ts requests%s: eventual %.2f / bounded %.2f / current %.2f, want 0 < bounded < current",
				suffix, ev.KTSReqsPerRetrieve, bnd.KTSReqsPerRetrieve, cur.KTSReqsPerRetrieve)
		}
		for _, p := range []ConsistencyPoint{cur, bnd, ev} {
			t.Logf("%s%s: %.2f msgs, %.3fs, %.2f last_ts, %d of %d overlapped",
				p.Level, suffix, p.MsgsPerRetrieve, p.RespTimeSec, p.KTSReqsPerRetrieve, p.OverlappedReads, p.QueriesRun)
			if p.LedgerBreaks != 0 {
				t.Errorf("%s%s: %d reads broke the sequencing ledger", p.Level, suffix, p.LedgerBreaks)
			}
		}
		if cur.OverlappedReads == 0 || ev.OverlappedReads != 0 {
			t.Errorf("overlapped reads%s: current %d, eventual %d; want some and none",
				suffix, cur.OverlappedReads, ev.OverlappedReads)
		}
		// Current proves currency whenever a current replica was
		// reachable: every run is either Proven, an explicit stale
		// fallback, or a failure — never an unproven success.
		if cur.Proven+cur.StaleReturns+cur.FailedQueries != cur.QueriesRun {
			t.Errorf("current%s: proven %d + stale %d + failed %d != run %d",
				suffix, cur.Proven, cur.StaleReturns, cur.FailedQueries, cur.QueriesRun)
		}
		if cur.WithinBound+cur.SessionFloor+cur.Unknown != 0 {
			t.Errorf("current%s: weaker verdicts on the provably-current level: %+v", suffix, cur)
		}
		// Bounded must actually have exercised the cache fast path.
		if bnd.WithinBound == 0 {
			t.Errorf("bounded%s: no within-bound verdicts — the cache never satisfied a read", suffix)
		}
		if ev.Proven+ev.WithinBound+ev.SessionFloor != 0 {
			t.Errorf("eventual%s: claimed currency it cannot have: %+v", suffix, ev)
		}
	}
}

// TestConsistencyLedgerAtGateScale pins seed 4 at the bench gate's
// scale, where a Current read issued by a chord peer with no
// predecessor — which owns every id, so its last_ts runs in-process and
// the early probe has no remote position to go to — waits on a slow
// indirect init and then probes in series, as the early-probe rule
// says it must. The figure's invariants, the sequencing ledger among
// them, hold on every cell.
func TestConsistencyLedgerAtGateScale(t *testing.T) {
	_, doc := runFigure(t, "consistency", Options{Seed: 4},
		"peers=32", "queries=48", "duration=6m")
	if err := doc.(*ConsistencyPoints).Validate(); err != nil {
		t.Fatal(err)
	}
}
