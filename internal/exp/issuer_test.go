package exp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/peer"
)

// cacheHolders runs a churn-free UMS-Direct scenario issued from a pool
// of clients peers and returns, sorted, the peers that hold a cached
// last_ts for some key afterwards. Every put (gen_ts) and every Current
// get (last_ts) leaves the key's last_ts in its issuer's cache, and
// nothing else fills it, so the holders are exactly the issuers.
func cacheHolders(t *testing.T, clients int) []string {
	t.Helper()
	sc := Table1Scenario(AlgUMSDirect, 24, 5)
	sc.Warmup, sc.Duration = time.Minute, 10*time.Minute
	sc.Keys, sc.Queries = 8, 16
	sc.ChurnRate, sc.UpdateRate = 0, 60
	sc.Clients = clients
	d := NewDeployment(sc.DeployConfig)
	r := d.run(sc, peer.UMS)
	if r.UpdatesRun == 0 || r.QueriesRun != sc.Queries {
		t.Fatalf("clients=%d: %d updates and %d of %d queries ran", clients, r.UpdatesRun, r.QueriesRun, sc.Queries)
	}
	var holders []string
	for _, p := range d.Peers {
		for i := 0; i < sc.Keys; i++ {
			if _, _, ok := p.KTS.Cached(core.Key(fmt.Sprintf("data-%03d", i))); ok {
				holders = append(holders, p.Name)
				break
			}
		}
	}
	slices.Sort(holders)
	return holders
}

// TestClientsIssueFromThePool: with Clients: 3 the load, every update
// and every query come from the first three peers; with Clients: 0 they
// come from random live peers, most of them outside those three.
func TestClientsIssueFromThePool(t *testing.T) {
	if got, want := cacheHolders(t, 3), []string{"peer0", "peer1", "peer2"}; !slices.Equal(got, want) {
		t.Errorf("Clients: 3 issued from %v, want %v", got, want)
	}
	if got := cacheHolders(t, 0); len(got) <= 3 {
		t.Errorf("Clients: 0 issued from only %v, want random live peers", got)
	}
}

// TestIssuerFallsThroughDeadPoolPeers pins the pool's round-robin: the
// i-th operation goes to pool[i mod k], a dead pool peer hands it to the
// next live one, and with the whole pool dead (or no pool) it goes to a
// random live peer drawn from the caller's stream.
func TestIssuerFallsThroughDeadPoolPeers(t *testing.T) {
	d := NewDeployment(Table1Deployment(8, 1))
	defer d.K.Stop()
	pool := d.Peers[:3]
	rng := d.K.NewRand("issuer-test")
	want := func(stage string, names ...string) {
		t.Helper()
		for i, name := range names {
			if p := d.issuer(pool, i, rng); p == nil || p.Name != name {
				t.Errorf("%s: operation %d issued by %v, want %s", stage, i, p, name)
			}
		}
	}
	want("all live", "peer0", "peer1", "peer2", "peer0")
	d.Do(func() { d.Depart(pool[1], true) })
	want("peer1 dead", "peer0", "peer2", "peer2", "peer0")
	d.Do(func() {
		d.Depart(pool[0], true)
		d.Depart(pool[2], false)
	})
	for i := 0; i < 3; i++ {
		a := d.issuer(pool, i, rand.New(rand.NewSource(int64(i))))
		b := d.RandomLivePeer(rand.New(rand.NewSource(int64(i))))
		if a == nil || a != b || slices.Contains(pool, a) {
			t.Errorf("pool dead: operation %d issued by %v, want the random live peer %v", i, a, b)
		}
	}
	a := d.issuer(nil, 0, rand.New(rand.NewSource(9)))
	if b := d.RandomLivePeer(rand.New(rand.NewSource(9))); a != b {
		t.Errorf("no pool: issued by %v, want the random live peer %v", a, b)
	}
}
