package dcdht

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSimNetworkInsertRetrieve(t *testing.T) {
	ctx := context.Background()
	n := NewSimNetwork(48, SimConfig{Replicas: 5, Seed: 1})
	defer n.Close()
	if got := n.Peers(); got != 48 {
		t.Fatalf("peers = %d", got)
	}
	if _, err := n.Put(ctx, "greeting", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	r, err := n.Get(ctx, "greeting")
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != "hello world" || !r.Current() {
		t.Fatalf("got %q current=%v", r.Data, r.Current())
	}
	if r.Elapsed <= 0 || r.Msgs <= 0 {
		t.Fatalf("metrics missing: %+v", r)
	}
}

func TestSimNetworkUpdateSupersedes(t *testing.T) {
	ctx := context.Background()
	n := NewSimNetwork(32, SimConfig{Replicas: 5, Seed: 2})
	defer n.Close()
	n.Put(ctx, "doc", []byte("v1"))
	n.Put(ctx, "doc", []byte("v2"))
	n.Put(ctx, "doc", []byte("v3"))
	r, err := n.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != "v3" {
		t.Fatalf("got %q", r.Data)
	}
	ts, err := n.LastTS(ctx, "doc")
	if err != nil || ts != r.TS {
		t.Fatalf("last_ts %v vs retrieved %v (err %v)", ts, r.TS, err)
	}
}

func TestSimNetworkSurvivesChurn(t *testing.T) {
	ctx := context.Background()
	n := NewSimNetwork(40, SimConfig{Replicas: 8, Seed: 3})
	defer n.Close()
	for i := 0; i < 6; i++ {
		n.Put(ctx, Key(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 10; i++ {
		n.ChurnOne()
		n.Advance(30 * time.Second)
	}
	current := 0
	for i := 0; i < 6; i++ {
		r, err := n.Get(ctx, Key(fmt.Sprintf("k%d", i)))
		if err != nil && !errors.Is(err, ErrNoCurrentReplica) {
			t.Errorf("retrieve k%d: %v", i, err)
			continue
		}
		if string(r.Data) != fmt.Sprintf("v%d", i) {
			t.Errorf("k%d = %q", i, r.Data)
		}
		if r.Current() {
			current++
		}
	}
	if current == 0 {
		t.Fatal("no retrieve returned a provably current replica after churn")
	}
	if n.Peers() != 40 {
		t.Fatalf("population drifted to %d", n.Peers())
	}
}

// TestSimNetworkNoLivePeer: with nobody left to issue from, single
// operations and batches alike fail as a whole with ErrUnreachable.
func TestSimNetworkNoLivePeer(t *testing.T) {
	ctx := context.Background()
	n := NewSimNetwork(2, SimConfig{Replicas: 2, Seed: 5})
	defer n.Close()
	n.FailOne()
	n.FailOne()
	if got := n.Peers(); got != 0 {
		t.Fatalf("peers = %d, want none left", got)
	}
	if _, err := n.Get(ctx, "k"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("get: err = %v, want ErrUnreachable", err)
	}
	for _, alg := range []Algorithm{AlgUMS, AlgBRK} {
		res, err := n.GetMulti(ctx, []Key{"a", "b"}, WithAlgorithm(alg))
		if !errors.Is(err, ErrUnreachable) || res != nil {
			t.Errorf("%v get multi: %d results, err = %v; want the batch to fail with ErrUnreachable", alg, len(res), err)
		}
	}
}

func TestAnalysisReexports(t *testing.T) {
	if e := ExpectedRetrievals(0.35, 10); e >= 3 {
		t.Fatalf("E(X) = %v", e)
	}
	if ps := IndirectSuccessProb(0.3, 13); ps <= 0.99 {
		t.Fatalf("ps = %v", ps)
	}
	if n := ReplicasForSuccess(0.3, 0.99); n != 13 {
		t.Fatalf("replicas = %d", n)
	}
}

// TestTCPRingEndToEnd is the cluster deployment in miniature: real
// sockets, real clocks, same protocol code.
func TestTCPRingEndToEnd(t *testing.T) {
	ctx := context.Background()
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	const peers = 8
	cfg := NodeConfig{
		Replicas:       5,
		Seed:           7,
		StabilizeEvery: 100 * time.Millisecond,
		GraceDelay:     50 * time.Millisecond,
	}
	nodes := make([]*Node, 0, peers)
	first, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.CreateRing()
	nodes = append(nodes, first)
	for i := 1; i < peers; i++ {
		nd, err := StartNode("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Join(first.Addr()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	time.Sleep(time.Second) // a few stabilization rounds

	if _, err := nodes[2].Put(ctx, "tcp-key", []byte("over the wire")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	r, err := nodes[6].Get(ctx, "tcp-key")
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if string(r.Data) != "over the wire" || !r.Current() {
		t.Fatalf("got %q current=%v", r.Data, r.Current())
	}

	// Update through another node; everyone must see the new value.
	if _, err := nodes[5].Put(ctx, "tcp-key", []byte("updated")); err != nil {
		t.Fatalf("update: %v", err)
	}
	for _, nd := range []*Node{nodes[0], nodes[3], nodes[7]} {
		r, err := nd.Get(ctx, "tcp-key")
		if err != nil {
			t.Fatalf("retrieve after update: %v", err)
		}
		if string(r.Data) != "updated" {
			t.Fatalf("stale read: %q", r.Data)
		}
	}

	// A graceful leave keeps data and counters available.
	if err := nodes[4].Leave(); err != nil {
		t.Logf("leave reported: %v (tolerated)", err)
	}
	time.Sleep(500 * time.Millisecond)
	r, err = nodes[1].Get(ctx, "tcp-key")
	if err != nil {
		t.Fatalf("retrieve after leave: %v", err)
	}
	if string(r.Data) != "updated" {
		t.Fatalf("after leave: %q", r.Data)
	}
	if _, err := nodes[1].Put(ctx, "tcp-key", []byte("v3")); err != nil {
		t.Fatalf("insert after leave: %v", err)
	}
	ts, err := nodes[2].LastTS(ctx, "tcp-key")
	if err != nil {
		t.Fatalf("last_ts: %v", err)
	}
	if ts.IsZero() {
		t.Fatal("last_ts lost after leave")
	}
}

// TestNegativeReplicasRejected: a negative |Hr| is an error from
// StartNode and a named panic from NewSimNetwork, never a crash deep in
// the hash set's construction.
func TestNegativeReplicasRejected(t *testing.T) {
	n, err := StartNode("127.0.0.1:0", NodeConfig{Replicas: -1})
	if err == nil {
		n.Close()
		t.Fatal("StartNode accepted -1 replicas")
	}
	if !strings.Contains(err.Error(), "replicas") {
		t.Errorf("StartNode error %q does not name the replicas", err)
	}

	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "dcdht: ") || !strings.Contains(msg, "replicas") {
			t.Errorf("NewSimNetwork panicked with %q, want a dcdht message naming the replicas", msg)
		}
	}()
	NewSimNetwork(4, SimConfig{Replicas: -1}).Close()
}
