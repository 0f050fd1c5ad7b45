package exp

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network/simwire"
	"repro/internal/peer"
	"repro/internal/stats"
)

// The republish regression: under the paper's data model a replica whose
// responsible arc is taken over by a fresh joiner is simply gone from
// the new owner's store — "new nodes can't find old values". The
// periodic republisher is the documented fix: peers still holding a
// replica they no longer own re-push it to the current responsible. One
// arm runs without it and must fail the retrieve; the identical arm with
// it must return the value provably current.

func republishArm(t *testing.T, republish bool) (core.Key, *Deployment) {
	t.Helper()
	cfg := DeployConfig{
		Peers: 10,
		Seed:  909,
		Net: simwire.Config{
			LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
			BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
			DefaultTimeout: 200 * time.Millisecond,
		},
		Config: peer.Config{
			Replicas: 1,
			Chord: chord.Config{
				SuccessorListLen: 6,
				StabilizeEvery:   500 * time.Millisecond,
				FixFingersEvery:  300 * time.Millisecond,
				CheckPredEvery:   500 * time.Millisecond,
				RPCTimeout:       200 * time.Millisecond,
			},
			// The paper's DHT model: no replica handoff on responsibility
			// changes — exactly the gap republish exists to close.
			NoDataHandoff: true,
		},
	}
	if republish {
		cfg.Republish = dht.RepublishConfig{Every: 10 * time.Second, PerRound: 64}
	}
	d := NewDeployment(cfg)
	d.RunFor(5 * time.Second)

	// Insert a basket of candidate keys. Peer identities are name-derived
	// and the join sequence is deterministic, so whether one particular
	// key's arc rotates is fixed in advance — a basket guarantees some
	// key's responsibility lands on a newcomer, and both arms pick the
	// same one.
	keys := make([]core.Key, 16)
	for i := range keys {
		keys[i] = core.Key(fmt.Sprintf("republished-%02d", i))
	}
	if !d.Do(func() {
		for _, k := range keys {
			if _, err := d.Peers[0].UMS.Insert(context.Background(), k, []byte("v1")); err != nil {
				t.Errorf("insert %s: %v", k, err)
			}
		}
	}) {
		t.Fatal("insert stalled")
	}

	ownerOf := func(id core.ID) *Peer {
		for _, p := range d.LivePeers() {
			if p.Node.OwnsID(id) {
				return p
			}
		}
		return nil
	}
	orig := make([]*Peer, len(keys))
	for i, k := range keys {
		if orig[i] = ownerOf(d.Set.Hr[0].ID(k)); orig[i] == nil {
			t.Fatalf("no owner for %s", k)
		}
	}

	// Join fresh peers: newcomers split arcs, so some candidate's
	// position rotates to a node whose store never saw the insert.
	rng := d.K.NewRand("republish-joins")
	for i := 0; i < 30; i++ {
		if !d.Do(func() { d.SpawnJoin(rng) }) {
			t.Fatal("join stalled")
		}
		d.RunFor(3 * time.Second)
	}
	var key core.Key
	for i, k := range keys {
		cur := ownerOf(d.Set.Hr[0].ID(k))
		if cur != nil && cur != orig[i] {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no candidate key's responsibility rotated to a newcomer")
	}
	// Several republish periods (or, without the republisher, the same
	// idle stretch) before the read.
	d.RunFor(time.Minute)
	return key, d
}

func TestRepublishMakesOldValuesFindable(t *testing.T) {
	// Arm 1: no republisher. The rotated-in owner has no replica and the
	// retrieve must come back empty-handed.
	key, d := republishArm(t, false)
	if !d.Do(func() {
		res, err := d.LivePeers()[len(d.LivePeers())-1].UMS.Retrieve(context.Background(), key)
		if err == nil && len(res.Data) > 0 {
			t.Errorf("without republish the retrieve should fail, got %q (currency %v)", res.Data, res.Currency)
		}
	}) {
		t.Fatal("retrieve stalled")
	}
	d.K.Stop()

	// Arm 2: identical run with the republisher on. The old owner
	// re-pushed the replica to the rotated-in responsible, so a late
	// joiner reads it back provably current.
	key, d = republishArm(t, true)
	pushed := uint64(0)
	for _, p := range d.Peers {
		if p.Repub != nil {
			pushed += p.Repub.Pushed()
		}
	}
	if pushed == 0 {
		t.Error("republisher never pushed a replica")
	}
	if !d.Do(func() {
		res, err := d.LivePeers()[len(d.LivePeers())-1].UMS.Retrieve(context.Background(), key)
		if err != nil {
			t.Errorf("with republish the retrieve should succeed: %v", err)
			return
		}
		if string(res.Data) != "v1" {
			t.Errorf("retrieved %q, want %q", res.Data, "v1")
		}
		if !res.Current() {
			t.Errorf("retrieve not provably current: currency %v", res.Currency)
		}
	}) {
		t.Fatal("retrieve stalled")
	}
	d.K.Stop()
}
