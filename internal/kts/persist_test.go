package kts

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/store"
)

// buildsOn checks that the counter node idx's store holds for k is the
// one the next gen_ts builds on: that gen_ts returns its successor.
func (c *cluster) buildsOn(idx int, k core.Key) {
	c.t.Helper()
	held, ok := c.nodes[idx].Store().Backing().GetCounter(k)
	if !ok {
		c.t.Fatalf("%s's store holds no counter for %q", c.nodes[idx].Self().Addr, k)
	}
	c.do(func() {
		ts, err := c.svc().GenTS(context.Background(), k)
		if err != nil || ts != held.Next() {
			c.t.Errorf("gen_ts(%q) = %v, %v; want %v, one past the stored %v", k, ts, err, held.Next(), held)
		}
	})
}

// TestCountersLiveInTheStore follows one key's counter through every
// path that writes it — a grant, a recovery, an inspection raise and a
// graceful leave — and checks after each that the peer's store holds
// exactly the counter the next gen_ts continues from: the store is the
// Valid Counters Set, not a copy of it.
func TestCountersLiveInTheStore(t *testing.T) {
	c := newCluster(t, 14, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	key := core.Key("home-key")
	c.do(func() {
		for i := 0; i < 3; i++ {
			if _, err := c.svc().GenTS(context.Background(), key); err != nil {
				t.Errorf("gen_ts: %v", err)
			}
		}
	})
	idx := c.responsibleFor(key)
	c.buildsOn(idx, key) // grants ts(4) on top of ts(3)

	// handleRecover raises the counter past a restarted peer's snapshot.
	req := RecoverReq{Entries: []CounterEntry{{Key: key, TS: core.TS(10)}}}
	if _, err := c.services[idx].handleRecover(req); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if ts, _ := c.nodes[idx].Store().Backing().GetCounter(key); ts != core.TS(10) {
		t.Fatalf("store holds %v after recovering ts(10)", ts)
	}
	c.buildsOn(idx, key)

	// An inspection round raises it to the highest stored replica.
	client := dht.NewClient(c.nodes[0], "ums")
	c.do(func() {
		for _, h := range c.set.Hr {
			client.PutH(context.Background(), key, h, core.Value{Data: []byte("x"), TS: core.TS(50)}, dht.PutIfNewer)
		}
		c.services[idx].inspectOnce(rand.New(rand.NewSource(1)))
	})
	if ts, _ := c.nodes[idx].Store().Backing().GetCounter(key); ts != core.TS(50) {
		t.Fatalf("store holds %v after inspecting replicas at ts(50)", ts)
	}
	c.buildsOn(idx, key)

	// A graceful leave collects the counter out of the leaver's store and
	// the heir accepts it into its own.
	c.do(func() {
		if err := c.nodes[idx].Leave(); err != nil {
			t.Errorf("leave: %v", err)
		}
	})
	c.net.Kill(c.nodes[idx].Self().Addr)
	c.settle(3 * time.Second)
	if ts, ok := c.nodes[idx].Store().Backing().GetCounter(key); ok {
		t.Fatalf("leaver's store still holds %v", ts)
	}
	heir := c.responsibleFor(key)
	c.buildsOn(heir, key)
	if _, inits, _ := c.services[heir].Stats(); inits != 0 {
		t.Fatalf("heir ran %d indirect inits, want 0 (the counter arrived)", inits)
	}
}

// TestCounterJournalAndSeedAcrossRestart drives the §4.2.2 recovery data
// path: every granted timestamp lands in the peer's durable store, and a
// service started over that store after a restart keeps granting above
// it with no seeding call and without ever falling back to indirect
// initialization.
func TestCounterJournalAndSeedAcrossRestart(t *testing.T) {
	disk := store.NewDepot()
	onDisk := func(int) *store.Store { return disk.Open("peer0") }
	c := newClusterOn(t, 7, 1, Config{Mode: ModeDirect}, onDisk)
	c.settle(2 * time.Second)
	var last core.Timestamp
	c.do(func() {
		for i := 0; i < 5; i++ {
			ts, err := c.svc().GenTS(context.Background(), "k")
			if err != nil {
				t.Errorf("gen_ts: %v", err)
				return
			}
			last = ts
		}
	})
	if last != core.TS(5) {
		t.Fatalf("last granted = %v, want ts(5)", last)
	}
	c.nodes[0].Crash()

	// "Restart": a brand-new cluster over the same disk. The key has no
	// replicas anywhere, so a counter not read from the store would
	// restart at 1 and re-issue old values.
	c2 := newClusterOn(t, 8, 1, Config{Mode: ModeDirect}, onDisk)
	c2.settle(2 * time.Second)
	c2.do(func() {
		ts, err := c2.svc().GenTS(context.Background(), "k")
		if err != nil {
			t.Errorf("gen_ts after restart: %v", err)
			return
		}
		if ts != last.Next() {
			t.Errorf("post-restart ts = %v, want exactly %v (no gap from re-init)", ts, last.Next())
		}
	})
	if _, inits, _ := c2.services[0].Stats(); inits != 0 {
		t.Fatalf("restarted service ran %d indirect inits, want 0", inits)
	}
}

// TestRLUDeletesJournalEntry checks the ablation mode: a counter
// discarded after each grant leaves the store, so the next gen_ts
// re-initializes rather than resuming it.
func TestRLUDeletesJournalEntry(t *testing.T) {
	c := newCluster(t, 9, 1, Config{Mode: ModeDirect, RLU: true})
	c.settle(2 * time.Second)
	for want := uint64(1); want <= 2; want++ {
		c.do(func() {
			if _, err := c.svc().GenTS(context.Background(), "k"); err != nil {
				t.Errorf("gen_ts: %v", err)
			}
		})
		if ts, ok := c.nodes[0].Store().Backing().GetCounter("k"); ok {
			t.Fatalf("store holds %v under RLU, want nothing", ts)
		}
		if _, inits, _ := c.services[0].Stats(); inits != want {
			t.Fatalf("%d indirect inits after %d grants, want one per grant", inits, want)
		}
	}
}

// TestCountersWalkInKeyOrder: the store hands counters back in no
// particular order, and the service sorts them, so a handover batch
// (like a recovery and an inspection round) lists them in key order on
// every replay.
func TestCountersWalkInKeyOrder(t *testing.T) {
	c := newCluster(t, 15, 1, Config{Mode: ModeDirect})
	backing := c.nodes[0].Store().Backing()
	var want []core.Key
	for _, i := range rand.New(rand.NewSource(3)).Perm(40) {
		k := core.Key(fmt.Sprintf("key-%02d", i))
		backing.PutCounter(k, core.TS(uint64(i+1)))
		want = append(want, k)
	}
	slices.Sort(want)
	batch, ok := c.services[0].Collect(func(core.ID) bool { return true }).(CounterBatch)
	if !ok {
		t.Fatal("collecting every counter shipped no batch")
	}
	var got []core.Key
	for _, e := range batch.Entries {
		got = append(got, e.Key)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("batch keys = %v, want %v", got, want)
	}
	if n := c.services[0].VCSLen(); n != 0 {
		t.Fatalf("%d counters left in the store after ceding every position", n)
	}
}

// TestRecoverRefusedByAClosedStore: a responsible whose store refuses
// the correction reports the storage failure instead of a correction
// that never landed, and the restarted peer keeps its counter to ship
// again.
func TestRecoverRefusedByAClosedStore(t *testing.T) {
	disk := store.NewDepot()
	c := newClusterOn(t, 12, 4, Config{Mode: ModeDirect}, func(i int) *store.Store {
		return disk.Open(fmt.Sprintf("peer%d", i))
	})
	c.settle(2 * time.Second)
	key := core.Key("refused-key")
	rsp := c.responsibleFor(key)
	restarted := (rsp + 1) % len(c.nodes)
	if err := c.nodes[restarted].Store().Backing().PutCounter(key, core.TS(42)); err != nil {
		t.Fatal(err)
	}
	c.nodes[rsp].Store().Backing().Close() // the responsible lives on; its store does not
	c.do(func() {
		corrected, err := c.services[restarted].RecoverTo(context.Background())
		if !errors.Is(err, store.ErrStore) || corrected != 0 {
			t.Errorf("RecoverTo = %d, %v; want 0 corrected and an error wrapping ErrStore", corrected, err)
		}
	})
	if ts, ok := c.nodes[restarted].Store().Backing().GetCounter(key); !ok || ts != core.TS(42) {
		t.Fatalf("restarted peer's counter = %v, %v; want ts(42) kept", ts, ok)
	}
}

// TestRefusedAdoptionIsCounted: a handed-over counter the store refuses
// is counted as a journal failure, not adopted in silence.
func TestRefusedAdoptionIsCounted(t *testing.T) {
	c := newCluster(t, 13, 1, Config{Mode: ModeDirect})
	svc := c.services[0]
	c.nodes[0].Store().Backing().Close()
	svc.Accept(CounterBatch{Entries: []CounterEntry{{Key: "k", TS: core.TS(5)}}})
	if n := svc.metrics.journalFails.Value(); n != 1 {
		t.Fatalf("journal failures = %d, want 1", n)
	}
}

// TestRefusedGrantCountsAJournalFailure: a gen_ts whose responsible's
// counter store has crashed is refused (the store will not take the new
// key's counter), and dcdht_kts_journal_failures_total — the one report
// of a store refusing KTS — counts the refusal.
func TestRefusedGrantCountsAJournalFailure(t *testing.T) {
	c := newCluster(t, 23, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	key := core.Key("refused-key")
	crashed := store.NewMem()
	crashed.Crash()
	c.services[c.responsibleFor(key)].vcs = crashed
	c.do(func() {
		if ts, err := c.svc().GenTS(context.Background(), key); err == nil {
			t.Errorf("gen_ts on a crashed store granted %v", ts)
		}
	})
	if got := c.obs.Snapshot().Get("dcdht_kts_journal_failures_total").Total(); got != 1 {
		t.Fatalf("dcdht_kts_journal_failures_total = %v after one refused grant, want 1", got)
	}
}
