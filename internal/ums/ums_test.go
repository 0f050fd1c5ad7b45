package ums_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/exp"
	"repro/internal/network/simwire"
	"repro/internal/ums"
)

// deploy builds a quiet 24-peer deployment for direct service tests.
func deploy(t *testing.T, seed int64) *exp.Deployment {
	t.Helper()
	cfg := exp.Table1Deployment(24, seed)
	cfg.Net = simwire.Config{}
	cfg.Replicas = 5
	d := exp.NewDeployment(cfg)
	d.RunFor(time.Minute)
	return d
}

func TestInsertThenRetrieveIsCurrent(t *testing.T) {
	d := deploy(t, 1)
	ok := d.Do(func() {
		p := d.Peers[0]
		ins, err := p.UMS.Insert(context.Background(), "k", []byte("v1"))
		if err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		if ins.Stored != 5 {
			t.Errorf("stored %d/5 replicas", ins.Stored)
		}
		if ins.TS != core.TS(1) {
			t.Errorf("first insert ts = %v", ins.TS)
		}
		// Retrieve from a different peer.
		r, err := d.Peers[7].UMS.Retrieve(context.Background(), "k")
		if err != nil {
			t.Errorf("retrieve: %v", err)
			return
		}
		if !r.Current() {
			t.Error("retrieve did not prove currency")
		}
		if string(r.Data) != "v1" {
			t.Errorf("data = %q", r.Data)
		}
		if r.Probed != 1 {
			t.Errorf("probed %d replicas; a fully current set needs 1", r.Probed)
		}
	})
	if !ok {
		t.Fatal("simulation stalled")
	}
}

func TestUpdateWinsOverStaleReplica(t *testing.T) {
	d := deploy(t, 2)
	ok := d.Do(func() {
		p := d.Peers[0]
		if _, err := p.UMS.Insert(context.Background(), "k", []byte("v1")); err != nil {
			t.Errorf("insert1: %v", err)
			return
		}
		if _, err := d.Peers[3].UMS.Insert(context.Background(), "k", []byte("v2")); err != nil {
			t.Errorf("insert2: %v", err)
			return
		}
		r, err := d.Peers[9].UMS.Retrieve(context.Background(), "k")
		if err != nil {
			t.Errorf("retrieve: %v", err)
			return
		}
		if string(r.Data) != "v2" || !r.Current() {
			t.Errorf("got %q current=%v, want current v2", r.Data, r.Current())
		}
		if r.TS != core.TS(2) {
			t.Errorf("ts = %v", r.TS)
		}
	})
	if !ok {
		t.Fatal("simulation stalled")
	}
}

func TestRetrieveNeverInserted(t *testing.T) {
	d := deploy(t, 3)
	d.Do(func() {
		_, err := d.Peers[0].UMS.Retrieve(context.Background(), "ghost")
		if !errors.Is(err, core.ErrNotFound) {
			t.Errorf("retrieve of never-inserted key: %v", err)
		}
	})
}

// Concurrent inserts from different peers: exactly one wins, and every
// retrieve decides the same winner (the paper's §3.2 guarantee that only
// the insert obtaining the latest timestamp persists).
func TestConcurrentInsertsSingleWinner(t *testing.T) {
	d := deploy(t, 4)
	results := make(chan core.Timestamp, 3)
	d.K.Go(func() {
		r, err := d.Peers[1].UMS.Insert(context.Background(), "hot", []byte("from-1"))
		if err == nil {
			results <- r.TS
		}
	})
	d.K.Go(func() {
		r, err := d.Peers[5].UMS.Insert(context.Background(), "hot", []byte("from-5"))
		if err == nil {
			results <- r.TS
		}
	})
	d.K.Go(func() {
		r, err := d.Peers[9].UMS.Insert(context.Background(), "hot", []byte("from-9"))
		if err == nil {
			results <- r.TS
		}
	})
	d.RunFor(5 * time.Minute)
	close(results)
	seen := map[core.Timestamp]bool{}
	var latest core.Timestamp
	for ts := range results {
		if seen[ts] {
			t.Fatalf("duplicate timestamp %v issued to concurrent inserts", ts)
		}
		seen[ts] = true
		latest = latest.Max(ts)
	}
	if len(seen) != 3 {
		t.Fatalf("expected 3 successful inserts, got %d", len(seen))
	}
	d.Do(func() {
		r, err := d.Peers[2].UMS.Retrieve(context.Background(), "hot")
		if err != nil {
			t.Errorf("retrieve: %v", err)
			return
		}
		if !r.Current() || r.TS != latest {
			t.Errorf("retrieve returned ts=%v current=%v, want latest %v", r.TS, r.Current(), latest)
		}
	})
}

// When every current replica is unavailable, retrieve returns the most
// recent available replica and flags it (Figure 2's data_mr path).
func TestRetrieveFallsBackToMostRecent(t *testing.T) {
	d := deploy(t, 5)
	key := core.Key("fallback")
	d.Do(func() {
		if _, err := d.Peers[0].UMS.Insert(context.Background(), key, []byte("old")); err != nil {
			t.Errorf("insert: %v", err)
		}
	})
	// Manually plant a newer timestamp in KTS by generating one more
	// (simulating an updater that obtained a timestamp and crashed
	// before storing any replica).
	d.Do(func() {
		if _, err := d.Peers[0].UMS.KTS().GenTS(context.Background(), key); err != nil {
			t.Errorf("gen: %v", err)
		}
	})
	d.Do(func() {
		r, err := d.Peers[4].UMS.Retrieve(context.Background(), key)
		if !ums.IsNoCurrent(err) {
			t.Errorf("want ErrNoCurrentReplica, got %v", err)
			return
		}
		if string(r.Data) != "old" {
			t.Errorf("fallback data = %q", r.Data)
		}
		if r.Current() {
			t.Error("fallback must not claim currency")
		}
		if r.Probed != 5 {
			t.Errorf("fallback should probe all replicas, probed %d", r.Probed)
		}
	})
}

// Theorem 1 in vivo: with all replicas current, retrieves probe exactly
// one replica; after killing a fraction of replica holders, the probe
// count rises but stays near 1/pt.
func TestProbeCountTracksAvailability(t *testing.T) {
	d := deploy(t, 6)
	keys := []core.Key{"p1", "p2", "p3", "p4", "p5", "p6"}
	d.Do(func() {
		for _, k := range keys {
			if _, err := d.Peers[0].UMS.Insert(context.Background(), k, []byte(k)); err != nil {
				t.Errorf("insert %s: %v", k, err)
			}
		}
	})
	total := 0
	d.Do(func() {
		for _, k := range keys {
			r, err := d.Peers[2].UMS.Retrieve(context.Background(), k)
			if err != nil {
				t.Errorf("retrieve %s: %v", k, err)
				continue
			}
			total += r.Probed
		}
	})
	if total != len(keys) {
		t.Fatalf("with pt=1 every retrieve must probe exactly once; total=%d", total)
	}
}

// TestCurrentReadFromAnOwnReplica: a peer serves itself in-process, so
// a Current read whose issuer owns a replica position probes it first
// for free. On cluster links (last_ts answers before any early probe
// would go) an issuer that is also rsp(k, hts) reads Proven at 0
// messages, and one that owns only a replica pays exactly last_ts's
// pair, 2; the same seed replays both.
func TestCurrentReadFromAnOwnReplica(t *testing.T) {
	script := func() []dht.OpResult {
		d := calmRing(31, simwire.Cluster())
		// find names a key and a peer that owns one of its replica
		// positions, and owns its counter too when counter is set (else
		// names the counter's owner without a lookup).
		find := func(counter bool) (core.Key, *exp.Peer) {
			for i := 0; i < 1000; i++ {
				k := core.Key(fmt.Sprintf("own-%d", i))
				hts := d.Set.HTS.ID(k)
				for _, p := range d.Peers {
					_, src := p.Node.Guess(hts)
					if p.Node.OwnsID(hts) != counter || (!counter && src == dht.NoGuess) {
						continue
					}
					for _, h := range d.Set.Hr {
						if p.Node.OwnsID(h.ID(k)) {
							return k, p
						}
					}
				}
			}
			t.Fatalf("no key whose replica owner is (counter=%v) its KTS responsible", counter)
			return "", nil
		}
		var gets []dht.OpResult
		for _, counter := range []bool{true, false} {
			k, p := find(counter)
			if !d.Do(func() {
				if _, err := d.Peers[0].UMS.Insert(context.Background(), k, []byte("v")); err != nil {
					t.Errorf("put %q: %v", k, err)
				}
				res, err := p.UMS.Retrieve(context.Background(), k)
				if err != nil {
					t.Errorf("get %q: %v", k, err)
				}
				gets = append(gets, res)
			}) {
				t.Fatal("simulation stalled")
			}
		}
		return gets
	}
	gets := script()
	for i, want := range []int{0, 2} {
		if r := gets[i]; r.Currency != dht.CurrencyProven || r.Probed != 1 || r.Msgs != want {
			t.Errorf("case %d: %s after %d probes, %d msgs; want proven after 1 probe, %d msgs", i, r.Currency, r.Probed, r.Msgs, want)
		}
	}
	if again := script(); !reflect.DeepEqual(gets, again) {
		t.Errorf("same seed, different results:\n first %+v\n again %+v", gets, again)
	}
}
