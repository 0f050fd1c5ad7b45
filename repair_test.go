package dcdht

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// churnOutcome captures everything observable about one simulated churn
// workload, so runs can be compared for quality (currency) and for
// bit-identical determinism (message and event counts).
type churnOutcome struct {
	current  int
	stale    int
	failed   int
	mismatch int // retrieves whose data was not the latest written payload
	regress  int // retrieves whose timestamp exceeded last_ts (impossible unless a repair regressed state)
	msgs     uint64
	events   uint64
	repair   RepairStats
}

// runChurnWorkload drives one SimNetwork through a sustained ChurnOne
// load: seed the working set, churn, update half-way (so stale data
// exists to regress to), churn more, then measure steady-state currency.
// Everything runs in virtual time off the config's seed, so two calls
// with the same config must be bit-identical.
func runChurnWorkload(t *testing.T, cfg SimConfig) churnOutcome {
	t.Helper()
	const keys = 24
	ctx := context.Background()
	n := NewSimNetwork(40, cfg)
	defer n.Close()

	payload := func(i, gen int) []byte { return []byte(fmt.Sprintf("k%d-gen%d", i, gen)) }
	for i := 0; i < keys; i++ {
		if _, err := n.Put(ctx, Key(fmt.Sprintf("k%d", i)), payload(i, 0)); err != nil {
			t.Fatalf("seed put k%d: %v", i, err)
		}
	}
	// Churn with interleaved reads shortly after each event — close
	// enough to observe the damage, which feeds read-repair when it is
	// enabled (the reads run identically, and harmlessly, when not).
	// Half the working set is read per round, so every key is looked at
	// every other churn event: read-repair can only heal what a read saw.
	reads := 0
	churn := func(rounds int) {
		for r := 0; r < rounds; r++ {
			n.ChurnOne()
			n.Advance(10 * time.Second)
			for j := 0; j < keys/2; j++ {
				n.Get(ctx, Key(fmt.Sprintf("k%d", reads%keys)))
				reads++
			}
			n.Advance(50 * time.Second)
		}
	}
	churn(8)
	// Update every key so each has an old and a new version in play.
	for i := 0; i < keys; i++ {
		if _, err := n.Put(ctx, Key(fmt.Sprintf("k%d", i)), payload(i, 1)); err != nil {
			t.Fatalf("update put k%d: %v", i, err)
		}
	}
	churn(28)
	// Let in-flight maintenance settle before measuring steady state.
	n.Advance(2 * time.Minute)

	var out churnOutcome
	for i := 0; i < keys; i++ {
		k := Key(fmt.Sprintf("k%d", i))
		last, lerr := n.LastTS(ctx, k)
		r, err := n.Get(ctx, k)
		switch {
		case err == nil && r.Current():
			out.current++
			if string(r.Data) != string(payload(i, 1)) {
				out.mismatch++
			}
		case err == nil || IsNoCurrent(err):
			out.stale++
		default:
			out.failed++
		}
		// No replica may carry a timestamp past the last generated one —
		// PutIfNewer repairs can restore and advance, never invent.
		if lerr == nil && last.Less(r.TS) {
			out.regress++
		}
	}
	out.msgs = n.d.Net.TotalMessages()
	out.events = n.d.K.Events()
	out.repair = n.RepairStats()
	return out
}

// TestRepairImprovesCurrencyUnderChurn is the subsystem's acceptance
// test: on the same seeds and ChurnOne schedules, steady-state currency
// with maintenance enabled strictly exceeds maintenance-off, replays are
// bit-identical, and no repair ever pushed a replica past last_ts.
//
// One seed's outcome rides on a handful of keys, and which of them stay
// provably current is decided mostly by where the crashes fall relative
// to each key's timestamp responsible — something no repair changes and
// any shift in operation timing reshuffles. So the comparison aggregates
// 144 final reads (24 keys over six seeds); each individual run is still
// fully deterministic and compared against its own-seed counterpart's
// workload. The sample is sized so that the inequalities do not ride on
// one timing: with a put's replica writes run one after the other it
// reads off 59, read-repair 68, sweep 72, both 72, and with them
// overlapped 59, 70, 69, 69; with the post-churn pause moved from 10 s
// to 9, 11, 12 and 13 s the smallest margins seen are 6 (read-repair)
// and 7 (sweep); over 32 seeds the per-seed gain is 1.0–1.2 current
// reads (read-repair) and 1.9–2.0 (sweep) with a standard deviation of
// 1.0–1.6 under either timing. (Four seeds of 12 keys and 3 reads per
// churn event passed by 15 against 13 and read 15 against 15 once puts
// got faster; over 64 seeds that design gains 0.1 reads per seed from
// read-repair with a deviation of 0.9. Sweep traffic, and with it the
// test's cost under the race detector, grows with seeds × keys.)
func TestRepairImprovesCurrencyUnderChurn(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	configs := func(seed int64) (off, sweep, rrOnly, both SimConfig) {
		off = SimConfig{
			Replicas:    3,
			Seed:        seed,
			FailureRate: Float(1.0), // every departure crashes: replicas are really lost
		}
		sweep = off
		sweep.RepairEvery = 30 * time.Second
		rrOnly = off
		rrOnly.ReadRepair = true
		both = sweep
		both.ReadRepair = true
		return
	}

	var offSum, sweepSum, rrSum, bothSum int
	var sweepStats, rrStats, bothStats RepairStats
	for _, seed := range seeds {
		offCfg, sweepCfg, rrCfg, bothCfg := configs(seed)
		off := runChurnWorkload(t, offCfg)
		sweep := runChurnWorkload(t, sweepCfg)
		rrOnly := runChurnWorkload(t, rrCfg)
		both := runChurnWorkload(t, bothCfg)
		t.Logf("seed %d: off=%+v", seed, off)
		t.Logf("seed %d: sweep=%+v", seed, sweep)
		t.Logf("seed %d: rr-only=%+v", seed, rrOnly)
		t.Logf("seed %d: both=%+v", seed, both)

		if off.repair != (RepairStats{}) {
			t.Fatalf("seed %d: maintenance off but stats non-zero: %+v", seed, off.repair)
		}
		for name, o := range map[string]churnOutcome{"off": off, "sweep": sweep, "rr-only": rrOnly, "both": both} {
			if o.regress > 0 {
				t.Fatalf("seed %d %s: %d retrieves carried a timestamp past last_ts (a repair regressed state)", seed, name, o.regress)
			}
			if o.mismatch > 0 {
				t.Fatalf("seed %d %s: %d provably-current retrieves returned non-latest data", seed, name, o.mismatch)
			}
		}
		offSum += off.current
		sweepSum += sweep.current
		rrSum += rrOnly.current
		bothSum += both.current
		sweepStats.Add(sweep.repair)
		rrStats.Add(rrOnly.repair)
		bothStats.Add(both.repair)

		// Determinism: an identical config must replay bit-identically,
		// down to every message the network carried and every kernel
		// event — including all repair activity.
		if again := runChurnWorkload(t, bothCfg); again != both {
			t.Fatalf("seed %d replay diverged:\n first %+v\n again %+v", seed, both, again)
		}
	}

	if sweepStats.Rounds == 0 || sweepStats.Healed == 0 {
		t.Fatalf("sweep did no work: %+v", sweepStats)
	}
	if rrStats.ReadRepairs == 0 {
		t.Fatalf("read-repair did no work: %+v", rrStats)
	}
	if rrStats.Rounds != 0 {
		t.Fatalf("read-repair-only config ran sweep rounds: %+v", rrStats)
	}
	if sweepSum <= offSum {
		t.Fatalf("sweep currency %d does not exceed off %d", sweepSum, offSum)
	}
	if rrSum <= offSum {
		t.Fatalf("read-repair currency %d does not exceed off %d", rrSum, offSum)
	}
	if bothSum <= offSum {
		t.Fatalf("sweep+read-repair currency %d does not exceed off %d", bothSum, offSum)
	}
}
