package dcdht

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestCurrencyUnderBuiltinScenariosOnEveryRing plays the fault-heavy
// builtin scenarios against each ring substrate while one writer keeps
// updating a few keys and reads come from rotating issuers. Routing may
// name owners from local state that the faults have made stale; the
// paper's two guarantees must not notice. Throughout: no acknowledged
// put draws a timestamp at or below an earlier acknowledged one of the
// same key, and no read that claims to be provably current returns
// anything but the latest write (the last acknowledged one, or a later
// attempt whose acknowledgement was lost to a fault). A partition may
// legitimately serve either side's view, so while split-heal is split
// only the post-heal state is held to the second guarantee.
//
// CAN plays churn-wave only, and is not required to recover. Its zones
// do not re-merge after a heal (see can.Node.Nudge), and a 32-peer space
// that loses half its members at once stops routing: indirect
// initialization then reaches no replica and restarts the counter at 1,
// with or without guessed owners. Both are the substrate's recorded
// limits, not properties of the access path under test here.
func TestCurrencyUnderBuiltinScenariosOnEveryRing(t *testing.T) {
	const keys = 4
	const window = 10 * time.Minute
	ctx := context.Background()
	for _, ring := range []Ring{RingChord, RingCAN, RingOneHop} {
		for _, name := range []string{"churn-wave", "split-heal", "mass-crash"} {
			if ring == RingCAN && name != "churn-wave" {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", ring, name), func(t *testing.T) {
				script, err := BuiltinScenario(name, window)
				if err != nil {
					t.Fatal(err)
				}
				n := NewSimNetwork(32, SimConfig{
					Ring: ring, Replicas: 5, Seed: 17, Scenario: &script,
					Inspect: time.Minute, RepairEvery: time.Minute,
				})
				defer n.Close()

				key := func(i int) Key { return Key(fmt.Sprintf("c%d", i)) }
				var acked [keys]Timestamp // highest acknowledged timestamp
				var latest [keys][]string // payloads a current read may return
				gen := 0
				put := func(i int) {
					gen++
					payload := fmt.Sprintf("c%d-gen%d", i, gen)
					r, err := n.Put(ctx, key(i), []byte(payload))
					if err != nil {
						// Unacknowledged, but some replicas may hold it.
						latest[i] = append(latest[i], payload)
						return
					}
					if !acked[i].Less(r.TS) {
						t.Fatalf("put %s: timestamp %v not past the acknowledged %v", payload, r.TS, acked[i])
					}
					acked[i], latest[i] = r.TS, []string{payload}
				}
				get := func(i int, strict bool) bool {
					r, err := n.Get(ctx, key(i))
					if err != nil || !r.Current() {
						return false
					}
					if !strict {
						return true
					}
					for _, p := range latest[i] {
						if string(r.Data) == p {
							return true
						}
					}
					t.Fatalf("provably-current read of %s returned %q, want one of %q", key(i), r.Data, latest[i])
					return false
				}

				for i := 0; i < keys; i++ {
					put(i)
				}
				strict := name != "split-heal"
				for step := 0; step < int(window/(30*time.Second))+2; step++ {
					n.Advance(30 * time.Second)
					put(step % keys)
					get(step%keys, strict)
					get((step+1)%keys, strict)
				}
				if !n.ScenarioDone() {
					t.Fatal("scenario events did not all apply")
				}
				// The faults must have made some guessed owners wrong, or
				// this run said nothing about the fallback.
				outcomes := map[string]float64{}
				for _, s := range n.MetricsSnapshot().Get("dcdht_dht_guess_total").Series {
					outcomes[s.Labels["outcome"]] += s.Value
				}
				if outcomes["hit"] == 0 || outcomes["miss"] == 0 {
					t.Fatalf("guess outcomes %v: want both hits and misses", outcomes)
				}
				// On chord the same must hold for the arcs lookups taught.
				if st := sumLearnedStats(n); ring == RingChord && (st.Hits == 0 || st.Misses == 0) {
					t.Fatalf("learned arcs %+v: want them both used and refused", st)
				}
				// Let the overlay re-merge, inspection reconcile split-brain
				// counters and repair restore replicas; then every key must
				// be writable past its history and provably current from
				// several issuers.
				n.Advance(15 * time.Minute)
				for i := 0; i < keys; i++ {
					put(i)
					recovered := len(latest[i]) == 1
					for probe := 0; probe < 3; probe++ {
						recovered = get(i, true) && recovered
					}
					if !recovered && ring != RingCAN {
						t.Fatalf("%s was not writable and provably current from three issuers after the faults", key(i))
					}
				}
			})
		}
	}
}
