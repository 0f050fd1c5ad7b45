package exp

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/repair"
	"repro/internal/ums"
)

// holdsReplica reports whether p's store has any replica of k.
func holdsReplica(d *Deployment, p *Peer, k core.Key) bool {
	for _, h := range d.Set.Hr {
		if _, ok := p.Node.Store().Get(h.ID(k), dht.Qualifier(ums.Namespace, k, h.Name())); ok {
			return true
		}
	}
	return false
}

// holdsCounter reports whether p's durable backing journaled k's counter
// (only meaningful under Durable, where the KTS journal is wired).
func holdsCounter(p *Peer, k core.Key) bool {
	for _, c := range p.Node.Store().Backing().Counters() {
		if c.Key == k {
			return true
		}
	}
	return false
}

// crashKeyHolders builds a small ring, inserts key twice, then crashes
// every peer holding one of its replicas (and, under durable, its
// counter). It returns the deployment, the crashed names and the last
// granted timestamp.
func crashKeyHolders(t *testing.T, durable bool, key core.Key) (*Deployment, []string, core.Timestamp) {
	t.Helper()
	d := NewDeployment(DeployConfig{
		Peers:    10,
		Replicas: 3,
		Seed:     42,
		Durable:  durable,
		// Brisk maintenance so the ring re-converges quickly (in virtual
		// time) after the crash and restart waves.
		Chord: chord.Config{StabilizeEvery: 2 * time.Second, FixFingersEvery: 3 * time.Second},
	})
	d.RunFor(time.Minute)

	var last core.Timestamp
	ok := d.Do(func() {
		p := d.LivePeers()[0]
		if _, err := p.UMS.Insert(context.Background(), key, []byte("v1")); err != nil {
			t.Errorf("insert 1: %v", err)
			return
		}
		r, err := p.UMS.Insert(context.Background(), key, []byte("v2"))
		if err != nil {
			t.Errorf("insert 2: %v", err)
			return
		}
		last = r.TS
	})
	if !ok || t.Failed() {
		t.Fatal("setup inserts did not complete")
	}

	var doomed []*Peer
	for _, p := range d.LivePeers() {
		if holdsReplica(d, p, key) || (durable && holdsCounter(p, key)) {
			doomed = append(doomed, p)
		}
	}
	if len(doomed) == 0 {
		t.Fatal("no peer holds the key")
	}
	var names []string
	d.Do(func() {
		for _, p := range doomed {
			names = append(names, p.Name)
			d.Depart(p, true)
		}
	})
	d.RunFor(5 * time.Minute) // let the survivors purge the dead from their tables
	return d, names, last
}

// restartAll revives the named peers one at a time, with a stabilization
// gap between revivals so each join routes over a converged ring.
func restartAll(t *testing.T, d *Deployment, names []string) {
	t.Helper()
	rng := d.K.NewRand("restart-test")
	for _, name := range names {
		name := name
		d.Do(func() {
			if d.RestartWithState(name, rng) == nil {
				t.Errorf("restart %s failed", name)
			}
		})
		d.RunFor(time.Minute)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestRestartWithStateDurable is the sim analogue of the node acceptance
// test: crash every holder of a key, restart them with retained state,
// and the deployment serves the pre-crash value and continues the
// counter exactly where it left off.
func TestRestartWithStateDurable(t *testing.T) {
	key := core.Key("doc")
	d, names, last := crashKeyHolders(t, true, key)

	got := d.RestartablePeers()
	sortedCopy := func(s []string) []string {
		out := append([]string(nil), s...)
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(sortedCopy(got), sortedCopy(names)) {
		t.Fatalf("restartable = %v, want the crashed %v", got, names)
	}

	restartAll(t, d, names)
	if left := d.RestartablePeers(); len(left) != 0 {
		t.Fatalf("still restartable after revival: %v", left)
	}
	d.RunFor(time.Minute)

	var res dht.OpResult
	ok := d.Do(func() {
		p := d.LivePeers()[0]
		var err error
		res, err = p.UMS.Retrieve(context.Background(), key)
		if err != nil {
			t.Errorf("retrieve after restart: %v", err)
		}
	})
	if !ok || t.Failed() {
		t.FailNow()
	}
	if string(res.Data) != "v2" || res.TS != last {
		t.Fatalf("after restart got %q @ %v, want %q @ %v", res.Data, res.TS, "v2", last)
	}

	// The revived responsible continues its counter: the next grant is
	// exactly last+1, not a fresh start and not an indirect re-init gap.
	var next core.Timestamp
	ok = d.Do(func() {
		p := d.LivePeers()[0]
		r, err := p.UMS.Insert(context.Background(), key, []byte("v3"))
		if err != nil {
			t.Errorf("insert after restart: %v", err)
			return
		}
		next = r.TS
	})
	if !ok || t.Failed() {
		t.FailNow()
	}
	if next != last.Next() {
		t.Fatalf("post-restart ts = %v, want exactly %v", next, last.Next())
	}
}

// TestRestartWithStateVolatile pins the baseline the recovery figure
// compares against: without Durable a restarted peer comes back blank,
// so a key whose holders all crashed stays lost.
func TestRestartWithStateVolatile(t *testing.T) {
	key := core.Key("doc")
	d, names, _ := crashKeyHolders(t, false, key)

	restartAll(t, d, names)
	d.RunFor(time.Minute)

	ok := d.Do(func() {
		p := d.LivePeers()[0]
		if res, err := p.UMS.Retrieve(context.Background(), key); err == nil {
			t.Errorf("crash-and-forget restart served %q @ %v, want a miss", res.Data, res.TS)
		}
	})
	if !ok {
		t.Fatal("retrieve did not complete")
	}
}

// TestEveryEntryPathStartsRepair: however a peer comes to be in the ring
// — assembled at deployment, joined as a churn replacement, restarted
// under its old name — its repair sweep runs.
func TestEveryEntryPathStartsRepair(t *testing.T) {
	d := NewDeployment(DeployConfig{
		Peers:    8,
		Replicas: 3,
		Seed:     7,
		Chord:    chord.Config{StabilizeEvery: 2 * time.Second, FixFingersEvery: 3 * time.Second},
		Repair:   repair.Config{Every: 10 * time.Second},
	})
	defer d.K.Stop()
	d.RunFor(30 * time.Second)

	rng := d.K.NewRand("entry-paths")
	victim := d.Peers[1]
	var joined, restarted *Peer
	if !d.Do(func() {
		joined = d.SpawnJoin(rng)
		d.Depart(victim, true)
	}) {
		t.Fatal("join stalled")
	}
	d.RunFor(5 * time.Minute) // let the survivors purge the dead peer
	if !d.Do(func() { restarted = d.RestartWithState(victim.Name, rng) }) {
		t.Fatal("restart stalled")
	}
	if joined == nil || restarted == nil {
		t.Fatalf("joined = %v, restarted = %v; want both in the ring", joined, restarted)
	}
	d.RunFor(5 * time.Minute)
	for name, p := range map[string]*Peer{"assembled": d.Peers[0], "joined": joined, "restarted": restarted} {
		if rounds := p.Repair.Stats().Rounds; rounds == 0 {
			t.Errorf("%s peer completed no repair sweep rounds", name)
		}
	}
}
