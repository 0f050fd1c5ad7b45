package exp

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/network/simwire"
	"repro/internal/peer"
	"repro/internal/repair"
	"repro/internal/stats"
)

// The rotated-arc regression: under the paper's data model a replica
// whose responsible arc is taken over by a fresh joiner is simply gone
// from the new owner's store — "new nodes can't find old values". The
// repair sweep closes that gap: it walks every replica a peer hosts,
// owned or not, and re-pushes the freshest value to the current replica
// set, so the peer left holding a replica it no longer owns hands it to
// the rotated-in responsible. One arm runs without the sweep and must
// fail the retrieve; the identical arm with it must return the value
// provably current.

func rotatedArcArm(t *testing.T, sweep bool) (core.Key, *Deployment) {
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
			// changes — exactly the gap the sweep has to close.
			NoDataHandoff: true,
		},
	}
	if sweep {
		cfg.Repair = repair.Config{Every: 10 * time.Second, PerRound: 64}
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
		keys[i] = core.Key(fmt.Sprintf("rotated-%02d", i))
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
	rng := d.K.NewRand("rotated-arc-joins")
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
	// Several sweep periods (or, without the sweep, the same idle
	// stretch) before the read.
	d.RunFor(time.Minute)
	return key, d
}

func TestSweepMakesOldValuesFindable(t *testing.T) {
	// Arm 1: no sweep. The rotated-in owner has no replica and the
	// retrieve must come back empty-handed.
	key, d := rotatedArcArm(t, false)
	if !d.Do(func() {
		res, err := d.LivePeers()[len(d.LivePeers())-1].UMS.Retrieve(context.Background(), key)
		if err == nil && len(res.Data) > 0 {
			t.Errorf("without the sweep the retrieve should fail, got %q (currency %v)", res.Data, res.Currency)
		}
	}) {
		t.Fatal("retrieve stalled")
	}
	d.K.Stop()

	// Arm 2: identical run with the sweep on. The old owner re-pushed the
	// replica to the rotated-in responsible, so a late joiner reads it
	// back provably current.
	key, d = rotatedArcArm(t, true)
	if d.RepairStats().Healed == 0 {
		t.Error("the sweep never healed a replica")
	}
	if !d.Do(func() {
		res, err := d.LivePeers()[len(d.LivePeers())-1].UMS.Retrieve(context.Background(), key)
		if err != nil {
			t.Errorf("with the sweep the retrieve should succeed: %v", err)
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
