package repair

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network/simwire"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/ums"
)

// cluster is a small simulated ring with UMS + KTS + repair per peer.
type cluster struct {
	t       *testing.T
	k       *simnet.Kernel
	set     hashing.Set
	nodes   []*chord.Node
	ums     []*ums.Service
	repairs []*Service
}

func newCluster(t *testing.T, seed int64, n int, cfg Config) *cluster {
	t.Helper()
	k := simnet.New(seed)
	net := simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 250 * time.Millisecond,
	})
	c := &cluster{t: t, k: k, set: hashing.NewSet(5)}
	chordCfg := chord.Config{
		StabilizeEvery:  500 * time.Millisecond,
		FixFingersEvery: 400 * time.Millisecond,
		CheckPredEvery:  500 * time.Millisecond,
		RPCTimeout:      250 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer%d", i)
		ep := net.NewEndpoint(name)
		nd := chord.New(net.Env(), ep, hashing.NodeID(name), chordCfg)
		ktsSvc := kts.New(nd, c.set, ums.Namespace, kts.Config{GraceDelay: -1, RPCTimeout: 2 * time.Second})
		u := ums.New(nd, c.set, ktsSvc)
		r := New(nd, c.set, ktsSvc, nd.Store(), ums.Namespace, cfg)
		u.SetReadRepair(r)
		c.nodes = append(c.nodes, nd)
		c.ums = append(c.ums, u)
		c.repairs = append(c.repairs, r)
	}
	chord.AssembleRing(c.nodes)
	for _, nd := range c.nodes {
		nd.Start()
	}
	c.settle(5 * time.Second)
	return c
}

func (c *cluster) do(fn func()) {
	c.t.Helper()
	done := false
	c.k.Go(func() {
		fn()
		done = true
	})
	for i := 0; i < 600 && !done; i++ {
		c.k.Run(c.k.Now() + 100*time.Millisecond)
	}
	if !done {
		c.t.Fatal("simulated operation did not complete")
	}
}

func (c *cluster) settle(d time.Duration) { c.k.Run(c.k.Now() + d) }

// owner returns the index of the node responsible for ring position id.
func (c *cluster) owner(id core.ID) int {
	for i, nd := range c.nodes {
		if nd.Alive() && nd.OwnsID(id) {
			return i
		}
	}
	c.t.Fatalf("no owner for %s", id)
	return -1
}

// replicaAt reads the replica of k under h directly from its host store.
func (c *cluster) replicaAt(k core.Key, h hashing.Func) (core.Value, bool) {
	host := c.owner(h.ID(k))
	return c.nodes[host].Store().Get(h.ID(k), dht.Qualifier(ums.Namespace, k, h.Name()))
}

// TestSweepHealsLostReplica wipes one replica host and checks that one
// anti-entropy round from a surviving host restores the replica with the
// current value.
func TestSweepHealsLostReplica(t *testing.T) {
	c := newCluster(t, 11, 12, Config{Every: time.Hour}) // manual rounds only
	defer c.k.Stop()
	key := core.Key("heal-me")

	c.do(func() {
		if _, err := c.ums[0].Insert(context.Background(), key, []byte("v1")); err != nil {
			t.Errorf("insert: %v", err)
		}
	})

	// Wipe the store of the peer hosting the replica under Hr[0]; the
	// replica is now missing, as after a crash + replacement join.
	h0 := c.set.Hr[0]
	victim := c.owner(h0.ID(key))
	c.nodes[victim].Store().Clear()
	if _, ok := c.replicaAt(key, h0); ok {
		t.Fatal("replica still present after wipe")
	}

	// Sweep from a surviving host of the same key (any peer whose store
	// still has it under some other hash function).
	sweeper := -1
	for i := range c.nodes {
		if i == victim {
			continue
		}
		keys, _ := c.repairs[i].hostedKeys()
		if len(keys) > 0 {
			sweeper = i
			break
		}
	}
	if sweeper < 0 {
		t.Fatal("no surviving replica host")
	}
	rng := c.k.NewRand("test-sweep")
	healed := 0
	c.do(func() { healed = c.repairs[sweeper].SweepOnce(rng) })
	if healed == 0 {
		t.Fatal("sweep healed nothing")
	}
	val, ok := c.replicaAt(key, h0)
	if !ok || string(val.Data) != "v1" {
		t.Fatalf("replica not restored: ok=%v val=%q", ok, val.Data)
	}
	st := c.repairs[sweeper].Stats()
	if st.Rounds != 1 || st.Healed == 0 || st.KeysScanned == 0 || st.Msgs == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

// TestReadRepairNeverRegresses pushes a deliberately stale observation
// through ReadRepair and asserts no replica travels backwards in time —
// the PutIfNewer discipline the subsystem is built on.
func TestReadRepairNeverRegresses(t *testing.T) {
	c := newCluster(t, 12, 10, Config{ReadRepair: true})
	defer c.k.Stop()
	key := core.Key("no-regress")

	var oldTS, newTS core.Timestamp
	c.do(func() {
		r1, err := c.ums[0].Insert(context.Background(), key, []byte("old"))
		if err != nil {
			t.Errorf("insert v1: %v", err)
		}
		oldTS = r1.TS
		r2, err := c.ums[1].Insert(context.Background(), key, []byte("new"))
		if err != nil {
			t.Errorf("insert v2: %v", err)
		}
		newTS = r2.TS
	})
	if !oldTS.Less(newTS) {
		t.Fatalf("timestamps not ordered: %v vs %v", oldTS, newTS)
	}

	// A malicious/late observation: the OLD value claimed for every
	// replica position.
	c.repairs[2].ReadRepair(key, core.Value{Data: []byte("old"), TS: oldTS}, c.set.Hr)
	c.settle(10 * time.Second)

	for _, h := range c.set.Hr {
		if val, ok := c.replicaAt(key, h); ok && val.TS.Less(newTS) {
			t.Fatalf("replica under %s regressed to %v (%q)", h.Name(), val.TS, val.Data)
		}
	}
	if st := c.repairs[2].Stats(); st.ReadRepairs != 0 {
		t.Fatalf("stale pushes were counted as repairs: %+v", st)
	}
}

// TestReadRepairRestoresMissing checks the positive path: a retrieve that
// finds the current value refreshes a wiped replica position through the
// installed ReadRepairer.
func TestReadRepairRestoresMissing(t *testing.T) {
	c := newCluster(t, 13, 10, Config{ReadRepair: true})
	defer c.k.Stop()
	key := core.Key("refresh")

	c.do(func() {
		if _, err := c.ums[0].Insert(context.Background(), key, []byte("cur")); err != nil {
			t.Errorf("insert: %v", err)
		}
	})
	// The retrieve comes from a peer that owns none of the key's
	// positions, so it probes first the first one it can guess (ums's
	// probe order): that is the position wiped.
	issuer := -1
	for i, nd := range c.nodes {
		owns := false
		for _, h := range c.set.Hr {
			owns = owns || nd.OwnsID(h.ID(key))
		}
		if !owns {
			issuer = i
			break
		}
	}
	if issuer < 0 {
		t.Fatal("every peer owns a replica position; the test wants an issuer that owns none")
	}
	wiped := c.set.Hr[0]
	for _, h := range c.set.Hr {
		if _, src := c.nodes[issuer].Guess(h.ID(key)); src != dht.NoGuess {
			wiped = h
			break
		}
	}
	c.nodes[c.owner(wiped.ID(key))].Store().Clear()

	// A retrieve observes the missing position and the current value; the
	// wired ReadRepairer refreshes it asynchronously.
	c.do(func() {
		if _, err := c.ums[issuer].Retrieve(context.Background(), key); err != nil {
			t.Errorf("retrieve: %v", err)
		}
	})
	c.settle(10 * time.Second)

	val, ok := c.replicaAt(key, wiped)
	if !ok || string(val.Data) != "cur" {
		t.Fatalf("read-repair did not restore the replica: ok=%v val=%q", ok, val.Data)
	}
	total := Stats{}
	for _, r := range c.repairs {
		total.Add(r.Stats())
	}
	if total.ReadRepairs == 0 {
		t.Fatalf("no read-repair counted: %+v", total)
	}
}

// TestHostedKeysFiltersNamespace checks that the sweep only sees its own
// namespace and reports keys deterministically sorted.
func TestHostedKeysFiltersNamespace(t *testing.T) {
	c := newCluster(t, 14, 4, Config{Every: time.Hour})
	defer c.k.Stop()
	st := c.nodes[0].Store()
	id := c.set.Hr[0].ID("b-key")
	st.Put(id, dht.Qualifier(ums.Namespace, "b-key", "hr0"), core.Value{Data: []byte("x"), TS: core.TS(1)}, dht.PutOverwrite)
	st.Put(id, dht.Qualifier(ums.Namespace, "a-key", "hr0"), core.Value{Data: []byte("x"), TS: core.TS(1)}, dht.PutOverwrite)
	st.Put(id, dht.Qualifier("brk", "c-key", "hr0"), core.Value{Data: []byte("x"), TS: core.TS(1)}, dht.PutOverwrite)

	keys, info := c.repairs[0].hostedKeys()
	if len(keys) != 2 || keys[0] != "a-key" || keys[1] != "b-key" {
		t.Fatalf("hostedKeys = %v", keys)
	}
	if _, ok := info["c-key"]; ok {
		t.Fatal("foreign namespace leaked into the sweep")
	}
	if !info["a-key"].local["hr0"] {
		t.Fatal("locally hosted position not recorded")
	}
}
