package dcdht

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/peer"
)

// newTestRing starts a small TCP ring for client API tests and returns
// the nodes plus a cleanup function.
func newTestRing(t *testing.T, peers int) []*Node {
	t.Helper()
	cfg := NodeConfig{
		Replicas:       5,
		Seed:           11,
		StabilizeEvery: 100 * time.Millisecond,
		GraceDelay:     50 * time.Millisecond,
	}
	first, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.CreateRing()
	nodes := []*Node{first}
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
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	time.Sleep(500 * time.Millisecond) // a few stabilization rounds
	return nodes
}

// expiredCtx returns a context whose deadline has already passed.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

// contractWorld is one deployment style under the Client contract:
// its clients (operations are spread over them), and the two places
// where the styles are specified to differ.
type contractWorld struct {
	clients []Client
	// pins reports whether WithIssuer selects a peer (SimNetwork) or is
	// rejected with ErrBadOption (a Node always issues from itself).
	pins bool
	// bogusRing builds the world on a ring name that does not exist.
	bogusRing func() error
	// issuer returns the options that make client 1 issue its reads of
	// k from one fixed peer that names rsp(k, hts) and a replica owner
	// without a lookup (see currentReadMsgs), and that peer's stack:
	// WithIssuer under simulation, none on a Node, which always issues
	// from itself.
	issuer func(t *testing.T, k Key) ([]OpOption, *peer.Stack)
}

func (w contractWorld) at(i int) Client { return w.clients[i%len(w.clients)] }

// clientContract is the behaviour every Client owes its callers,
// whichever world runs underneath. Each row owns its keys, so rows are
// independent of one another and of their order.
var clientContract = []struct {
	name string
	run  func(t *testing.T, w contractWorld)
}{
	{"put-get-levels", func(t *testing.T, w contractWorld) {
		ctx := context.Background()
		ins, err := w.at(0).Put(ctx, "c-levels", []byte("v1"))
		if err != nil {
			t.Fatal(err)
		}
		if ins.Stored == 0 {
			t.Fatal("put stored no replicas")
		}
		pin, st := w.issuer(t, "c-levels")
		for name, opts := range map[string][]OpOption{
			"current":  nil,
			"bounded":  {WithConsistency(Bounded(time.Minute))},
			"bounded0": {WithConsistency(Bounded(0))},
			"eventual": {WithConsistency(Eventual)},
		} {
			overlapped := overlappedGets(st)
			r, err := w.at(1).Get(ctx, "c-levels", append(pin, opts...)...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if string(r.Data) != "v1" {
				t.Fatalf("%s: got %q", name, r.Data)
			}
			if name != "current" {
				continue
			}
			want, _ := currentReadMsgs(st, "c-levels", overlappedGets(st) > overlapped)
			if !r.Current() || r.Probed != 1 || r.Msgs != want {
				t.Fatalf("current read: current=%v after %d probes, %d msgs; want current after 1 probe, %d msgs",
					r.Current(), r.Probed, r.Msgs, want)
			}
		}
	}},
	{"last-ts", func(t *testing.T, w contractWorld) {
		ctx := context.Background()
		ins, err := w.at(0).Put(ctx, "c-lastts", []byte("v1"))
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range map[string][]OpOption{
			"current": nil,
			"bounded": {WithConsistency(Bounded(time.Hour))},
		} {
			// From the writer (whose cache may answer the bounded ask)
			// and from a peer that has to go to KTS.
			for i := 0; i < 2; i++ {
				ts, err := w.at(i).LastTS(ctx, "c-lastts", opts...)
				if err != nil || ts != ins.TS {
					t.Fatalf("%s from client %d: last_ts = %v (err %v), want the insert's %v", name, i, ts, err, ins.TS)
				}
			}
		}
		if ts, err := w.at(2).LastTS(ctx, "c-never-stamped"); err != nil || !ts.IsZero() {
			t.Fatalf("unstamped key: last_ts = %v (err %v), want zero", ts, err)
		}
	}},
	{"missing-key", func(t *testing.T, w contractWorld) {
		if _, err := w.at(0).Get(context.Background(), "c-ghost"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	}},
	{"brk-reads-all", func(t *testing.T, w contractWorld) {
		ctx := context.Background()
		if _, err := w.at(0).Put(ctx, "c-brk", []byte("v1"), WithAlgorithm(AlgBRK)); err != nil {
			t.Fatal(err)
		}
		r, err := w.at(1).Get(ctx, "c-brk", WithAlgorithm(AlgBRK))
		if err != nil {
			t.Fatal(err)
		}
		if string(r.Data) != "v1" || r.Probed != 5 {
			t.Fatalf("BRK got %q probing %d, want v1 from all 5 replicas", r.Data, r.Probed)
		}
		// UMS on the same ring stops at the first provably current one.
		if _, err := w.at(0).Put(ctx, "c-ums", []byte("v1")); err != nil {
			t.Fatal(err)
		}
		ru, err := w.at(1).Get(ctx, "c-ums")
		if err != nil {
			t.Fatal(err)
		}
		if ru.Probed >= r.Probed {
			t.Fatalf("UMS probed %d vs BRK %d", ru.Probed, r.Probed)
		}
	}},
	{"multi-ums", func(t *testing.T, w contractWorld) { contractMulti(t, w, "c-mu", true) }},
	{"multi-brk", func(t *testing.T, w contractWorld) { contractMulti(t, w, "c-mb", false, WithAlgorithm(AlgBRK)) }},
	{"multi-relaxed", func(t *testing.T, w contractWorld) { contractMulti(t, w, "c-mr", false, WithConsistency(Eventual)) }},
	{"canceled-context", func(t *testing.T, w contractWorld) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := w.at(0).Get(ctx, "c-levels"); !errors.Is(err, context.Canceled) {
			t.Fatalf("get: err = %v, want context.Canceled", err)
		}
		if _, err := w.at(0).PutMulti(ctx, []KV{{Key: "c-x", Data: []byte("1")}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("put multi: err = %v, want context.Canceled", err)
		}
		if _, err := w.at(0).GetMulti(ctx, []Key{"c-levels"}, WithAlgorithm(AlgBRK)); !errors.Is(err, context.Canceled) {
			t.Fatalf("brk get multi: err = %v, want context.Canceled", err)
		}
	}},
	{"expired-deadline", func(t *testing.T, w contractWorld) {
		if _, err := w.at(0).Put(context.Background(), "c-expired", []byte("v")); err != nil {
			t.Fatal(err)
		}
		for name, op := range map[string]func(context.Context) error{
			"get":    func(ctx context.Context) error { _, err := w.at(1).Get(ctx, "c-expired"); return err },
			"put":    func(ctx context.Context) error { _, err := w.at(2).Put(ctx, "c-expired", []byte("v2")); return err },
			"lastts": func(ctx context.Context) error { _, err := w.at(0).LastTS(ctx, "c-expired"); return err },
		} {
			start := time.Now()
			err := op(expiredCtx(t))
			if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: err = %v, want both ErrTimeout and context.DeadlineExceeded", name, err)
			}
			if wall := time.Since(start); wall > time.Second {
				t.Fatalf("%s: expired deadline took %v, want prompt failure", name, wall)
			}
		}
	}},
	{"bad-options", func(t *testing.T, w contractWorld) {
		ctx := context.Background()
		c := w.at(1)
		one := []KV{{Key: "c-bad", Data: []byte("v")}}
		// Each operation with an option that is invalid everywhere; BRK
		// has no currency proof to relax, in either option order.
		for name, err := range map[string]error{
			"get negative issuer":       second(c.Get(ctx, "c-bad", WithIssuer(-1))),
			"put negative issuer":       second(c.Put(ctx, "c-bad", []byte("v"), WithIssuer(-7))),
			"last_ts negative issuer":   second(c.LastTS(ctx, "c-bad", WithIssuer(-1))),
			"get negative bound":        second(c.Get(ctx, "c-bad", WithConsistency(Bounded(-time.Second)))),
			"get multi negative bound":  second(c.GetMulti(ctx, []Key{"a", "b"}, WithConsistency(Bounded(-1)))),
			"put multi negative issuer": second(c.PutMulti(ctx, one, WithIssuer(-1))),
			"BRK+consistency":           second(c.Get(ctx, "c-bad", WithAlgorithm(AlgBRK), WithConsistency(Eventual))),
			"consistency+BRK":           second(c.Get(ctx, "c-bad", WithConsistency(Eventual), WithAlgorithm(AlgBRK))),
			"BRK multi + consistency":   second(c.GetMulti(ctx, []Key{"a"}, WithAlgorithm(AlgBRK), WithConsistency(Eventual))),
		} {
			if !errors.Is(err, ErrBadOption) {
				t.Errorf("%s: err = %v, want ErrBadOption", name, err)
			}
		}
		// A bad call reads the same whatever the context: option errors
		// come before the done-context rejection.
		done, cancel := context.WithCancel(ctx)
		cancel()
		for name, err := range map[string]error{
			"get":       second(c.Get(done, "c-bad", WithIssuer(-1))),
			"get multi": second(c.GetMulti(done, []Key{"a"}, WithConsistency(Bounded(-1)))),
		} {
			if !errors.Is(err, ErrBadOption) {
				t.Errorf("%s on a canceled context: err = %v, want ErrBadOption", name, err)
			}
		}
		// BRK enforces no floors, so a floored session read through it
		// fails loudly.
		brkSession := c.NewSession(WithAlgorithm(AlgBRK))
		if _, err := brkSession.Put(ctx, "c-brk-doc", []byte("v")); err != nil {
			t.Errorf("BRK session put: %v", err)
		}
		if _, err := brkSession.Get(ctx, "c-brk-doc"); !errors.Is(err, ErrBadOption) {
			t.Errorf("floored session read on BRK: err = %v, want ErrBadOption", err)
		}
	}},
	{"issuer-pin", func(t *testing.T, w contractWorld) {
		ctx := context.Background()
		c := w.at(1)
		pin := WithIssuer(3)
		one := []KV{{Key: "c-pin-multi", Data: []byte("v")}}
		errs := map[string]error{
			"put":       second(c.Put(ctx, "c-pin", []byte("v"), pin)),
			"get":       second(c.Get(ctx, "c-pin", pin)),
			"last_ts":   second(c.LastTS(ctx, "c-pin", pin)),
			"put multi": second(c.PutMulti(ctx, one, pin)),
			"get multi": second(c.GetMulti(ctx, []Key{"c-pin"}, pin)),
		}
		if !w.pins {
			// Rejected as an option, so ahead of the done-context check.
			done, cancel := context.WithCancel(ctx)
			cancel()
			errs["get, canceled"] = second(c.Get(done, "c-pin", pin))
			errs["put multi, canceled"] = second(c.PutMulti(done, one, pin))
		}
		for name, err := range errs {
			if w.pins && err != nil {
				t.Errorf("%s with a pinned issuer: %v", name, err)
			}
			if !w.pins && !errors.Is(err, ErrBadOption) {
				t.Errorf("%s: err = %v, want ErrBadOption (nothing to pin)", name, err)
			}
		}
	}},
	{"unknown-ring", func(t *testing.T, w contractWorld) {
		if err := w.bogusRing(); err == nil {
			t.Fatal("a deployment on ring \"bogus\" was built; want it refused")
		}
	}},
}

// overlappedGets reads how many retrieves sent their first probe
// alongside last_ts off st's registry (shared by every simulated peer).
func overlappedGets(st *peer.Stack) uint64 {
	return st.Node.Obs().CounterVec("dcdht_ums_retrieve_total", "", "mode").With("overlapped").Value()
}

// currentReadMsgs is what a Current read of k from st costs when its
// first probe finds a current replica: a message pair for last_ts unless
// st is rsp(k, hts), and one for the probe unless st owns a replica
// position and probes it first — which the early probe sent alongside a
// slow last_ts never does — or owns none and guesses rsp(k, hts) to own
// one, whose replica then rides on last_ts. A peer serves itself
// in-process, for free.
// guessed is false when the read could pay a lookup on the way: st
// cannot name rsp(k, hts), or owns only some replica positions and
// cannot name the owner of any other (where the early probe goes). A
// peer owning every position needs no name: its probes stay local.
func currentReadMsgs(st *peer.Stack, k Key, overlapped bool) (msgs int, guessed bool) {
	set := hashing.NewSet(5)
	named := func(id core.ID) bool {
		_, src := st.Node.Guess(id)
		return src != dht.NoGuess
	}
	guessed = st.Node.OwnsID(set.HTS.ID(k)) || named(set.HTS.ID(k))
	if !st.Node.OwnsID(set.HTS.ID(k)) {
		msgs += 2
	}
	ownsReplica, ownsAll, namesReplica, fused := false, true, false, false
	stamper, src := st.Node.Guess(set.HTS.ID(k))
	for _, h := range set.Hr {
		owns := st.Node.OwnsID(h.ID(k))
		ownsReplica, ownsAll = ownsReplica || owns, ownsAll && owns
		namesReplica = namesReplica || (!owns && named(h.ID(k)))
		ref, hsrc := st.Node.Guess(h.ID(k))
		fused = fused || (src != dht.NoGuess && hsrc != dht.NoGuess && ref.Addr == stamper.Addr)
	}
	if overlapped || !ownsReplica && !fused {
		msgs += 2
	}
	return msgs, guessed && (ownsAll || namesReplica)
}

// second drops an operation's result, keeping its error.
func second[T any](_ T, err error) error { return err }

// contractMulti writes a batch and reads it back with a never-inserted
// key in the middle: index i of every result matches input i, and the
// missing key's error stays its own. With proven, every get found must
// also come back CurrencyProven.
func contractMulti(t *testing.T, w contractWorld, prefix string, proven bool, opts ...OpOption) {
	t.Helper()
	items := make([]KV, 4)
	for i := range items {
		items[i] = KV{Key: Key(fmt.Sprintf("%s-%d", prefix, i)), Data: []byte(fmt.Sprintf("v%d", i))}
	}
	puts, err := w.at(0).PutMulti(context.Background(), items, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(puts) != len(items) {
		t.Fatalf("got %d put results for %d items", len(puts), len(items))
	}
	for i, r := range puts {
		if r.Key != items[i].Key || r.Err != nil || r.Stored == 0 {
			t.Fatalf("put %d: key %q stored %d err %v, want %q stored", i, r.Key, r.Stored, r.Err, items[i].Key)
		}
	}

	keys := []Key{items[0].Key, items[1].Key, "c-multi-ghost", items[2].Key, items[3].Key}
	gets, err := w.at(2).GetMulti(context.Background(), keys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(gets) != len(keys) {
		t.Fatalf("got %d results for %d keys", len(gets), len(keys))
	}
	for i, r := range gets {
		if r.Key != keys[i] {
			t.Fatalf("result %d keyed %q, want %q", i, r.Key, keys[i])
		}
		if i == 2 {
			if !errors.Is(r.Err, ErrNotFound) {
				t.Fatalf("ghost err = %v, want ErrNotFound", r.Err)
			}
			continue
		}
		want := "v" + string(r.Key[len(r.Key)-1])
		if r.Err != nil || string(r.Data) != want {
			t.Fatalf("%q = %q (err %v), want %q with the ghost's error kept out", r.Key, r.Data, r.Err, want)
		}
		if proven && r.Currency != CurrencyProven {
			t.Fatalf("%q came back %s, want %s", r.Key, r.Currency, CurrencyProven)
		}
	}
	if empty, err := w.at(2).GetMulti(context.Background(), nil, opts...); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %d results, err %v", len(empty), err)
	}
}

// TestClientContract runs the same cases against a simulated network
// and a 3-node loopback TCP ring: the two worlds issue through the same
// code, and this is where a difference between them would show.
func TestClientContract(t *testing.T) {
	worlds := map[string]func(t *testing.T) contractWorld{
		"sim": func(t *testing.T) contractWorld {
			n := NewSimNetwork(24, SimConfig{Replicas: 5, Seed: 21})
			t.Cleanup(n.Close)
			issuer := func(t *testing.T, k Key) ([]OpOption, *peer.Stack) {
				for i, p := range n.d.LivePeers() {
					if _, guessed := currentReadMsgs(p.Stack, k, false); guessed {
						return []OpOption{WithIssuer(i)}, p.Stack
					}
				}
				t.Fatalf("no peer names the owners of %q without a lookup", k)
				return nil, nil
			}
			return contractWorld{clients: []Client{n}, pins: true, issuer: issuer, bogusRing: func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				NewSimNetwork(4, SimConfig{Ring: "bogus"}).Close()
				return nil
			}}
		},
		"tcp": func(t *testing.T) contractWorld {
			if testing.Short() {
				t.Skip("tcp integration test")
			}
			w := contractWorld{bogusRing: func() error {
				n, err := StartNode("127.0.0.1:0", NodeConfig{Ring: "bogus"})
				if err == nil {
					n.Close()
				}
				return err
			}}
			w.issuer = func(t *testing.T, k Key) ([]OpOption, *peer.Stack) {
				st := w.clients[1].(*Node).stack
				if _, guessed := currentReadMsgs(st, k, false); !guessed {
					t.Fatalf("a member of a 3-node ring cannot name the owners of %q", k)
				}
				return nil, st
			}
			for _, n := range newTestRing(t, 3) {
				w.clients = append(w.clients, n)
			}
			return w
		},
	}
	for name, build := range worlds {
		t.Run(name, func(t *testing.T) {
			w := build(t)
			for _, row := range clientContract {
				t.Run(row.name, func(t *testing.T) { row.run(t, w) })
			}
		})
	}
}

func TestTCPCanceledContextStopsOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	nodes := newTestRing(t, 4)
	if _, err := nodes[0].Put(context.Background(), "tcp-cancel", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Cancel shortly after issuing: the operation must come back well
	// before the default RPC patience would let it linger.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	for time.Since(start) < 2*time.Second {
		if _, err := nodes[1].Get(ctx, "tcp-cancel"); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return
		}
	}
	t.Fatal("cancellation never surfaced")
}
