package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	dcdht "repro"
	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network"
	"repro/internal/network/tcpwire"
	"repro/internal/onehop"
	"repro/internal/perf"
	"repro/internal/store"
)

// The layer probes: each layer timed alone, from outside, through its
// package's public functions. A probe reports the median of its calls so
// one scheduler hiccup does not move it.

// probeSizes are the call counts of one probe run.
type probeSizes struct {
	calls     int // cheap in-memory and loopback calls
	fsyncs    int // SyncAlways appends: each is a real fsync
	newKeys   int // first GenTS of a key: ~70 ms each
	batches   int // 8-key GetMulti / PutMulti: ~75 ms each
	walReplay int // records in the replayed log
	nodes     int
}

func probeSizesFor(o runOpts) probeSizes {
	if o.smoke {
		return probeSizes{calls: 50, fsyncs: 5, newKeys: 3, batches: 2, walReplay: 500, nodes: 4}
	}
	return probeSizes{calls: 2000, fsyncs: 200, newKeys: 30, batches: 20, walReplay: 10000, nodes: ringNodes}
}

// medianOf times fn n times and returns the median in the unit of per
// (time.Microsecond for us, time.Millisecond for ms).
func medianOf(n int, per time.Duration, fn func(i int) error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		began := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(began)) / float64(per)
	}
	return median(xs), nil
}

// runProbes runs every layer probe and returns metric name -> value.
func runProbes(ctx context.Context, o runOpts, tmp string) (map[string]float64, error) {
	sz := probeSizesFor(o)
	out := map[string]float64{}
	for _, probe := range []func(context.Context, probeSizes, string, map[string]float64) error{
		probeHashing, probeWire, probeStore, probeLocalStore,
		probeRings, probeNodes, probeKernel, probeGenerator,
	} {
		if err := probe(ctx, sz, tmp, out); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	return out, nil
}

var probeValue = core.Value{Data: bytes.Repeat([]byte{'v'}, payloadSize), TS: core.TS(1)}

func probeHashing(_ context.Context, sz probeSizes, _ string, out map[string]float64) error {
	set := hashing.NewSet(replicas)
	var sink core.ID
	// Too fast to time per call: time the batch.
	began := time.Now()
	for i := 0; i < sz.calls; i++ {
		k := keyName(i % keyCount)
		for _, h := range set.Hr {
			sink ^= h.ID(k)
		}
		sink ^= set.HTS.ID(k)
	}
	out["hashing.replica_ids_ns"] = float64(time.Since(began)) / float64(sz.calls)
	_ = sink
	return nil
}

// wireFrame mirrors the request frame tcpwire sends, for costing the
// codec on its own.
type wireFrame struct {
	Method string
	From   string
	Body   network.Message
}

func probeWire(ctx context.Context, sz probeSizes, _ string, out map[string]float64) error {
	server, err := tcpwire.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer server.Close()
	client, err := tcpwire.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer client.Close()
	server.Handle("probe.echo", func(_ network.Addr, req network.Message) (network.Message, error) { return req, nil })
	small := kts.LastTSReq{Key: keyName(0)}
	big := dht.PutReq{RingID: 42, Qual: dht.Qualifier("ums", keyName(0), "hr0"), Val: probeValue, Mode: dht.PutIfNewer}
	for name, req := range map[string]network.Message{"tcpwire.rtt_small_us": small, "tcpwire.rtt_1k_us": big} {
		v, err := medianOf(sz.calls, time.Microsecond, func(int) error {
			_, err := client.Invoke(ctx, server.Addr(), "probe.echo", req, network.Call{})
			return err
		})
		if err != nil {
			return err
		}
		out[name] = v
	}

	frame := wireFrame{Method: dht.MethodPut, From: "127.0.0.1:4100", Body: big}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	roundTrip := func(enc *gob.Encoder, dec *gob.Decoder) error {
		if err := enc.Encode(frame); err != nil {
			return err
		}
		var got wireFrame
		return dec.Decode(&got)
	}
	if out["tcpwire.gob_1k_us"], err = medianOf(sz.calls, time.Microsecond, func(int) error {
		return roundTrip(enc, dec)
	}); err != nil {
		return err
	}
	out["tcpwire.gob_1k_fresh_us"], err = medianOf(sz.calls/4+1, time.Microsecond, func(int) error {
		var b bytes.Buffer
		return roundTrip(gob.NewEncoder(&b), gob.NewDecoder(&b))
	})
	return err
}

func probeItem(i int) store.Item {
	return store.Item{RingID: core.ID(i % keyCount), Qual: dht.Qualifier("ums", keyName(i%keyCount), "hr0"), Val: probeValue}
}

func probeStore(_ context.Context, sz probeSizes, tmp string, out map[string]float64) (err error) {
	mem := store.NewMem()
	if out["store.mem_put_us"], err = medianOf(sz.calls, time.Microsecond, func(i int) error {
		return mem.PutItem(probeItem(i))
	}); err != nil {
		return err
	}
	for _, p := range []struct {
		name   string
		policy store.SyncPolicy
		n      int
	}{
		{"store.wal_put_os_us", store.SyncOS, sz.calls},
		{"store.wal_put_batch_us", store.SyncBatch, sz.calls},
		{"store.wal_put_always_us", store.SyncAlways, sz.fsyncs},
	} {
		dir, err := os.MkdirTemp(tmp, "probe-wal-")
		if err != nil {
			return err
		}
		w, err := store.OpenWAL(dir, store.WALOptions{Policy: p.policy})
		if err != nil {
			return err
		}
		v, err := medianOf(p.n, time.Microsecond, func(i int) error { return w.PutItem(probeItem(i)) })
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		out[p.name] = v
	}

	// Replay: write the log without ever compacting it, drop the handle
	// the way a crash would, and time the reopen.
	dir := filepath.Join(tmp, "probe-replay")
	opts := store.WALOptions{Policy: store.SyncOS, CompactEvery: 1 << 30}
	w, err := store.OpenWAL(dir, opts)
	if err != nil {
		return err
	}
	for i := 0; i < sz.walReplay; i++ {
		if err := w.PutItem(probeItem(i)); err != nil {
			return err
		}
	}
	w.Crash()
	began := time.Now()
	w, err = store.OpenWAL(dir, opts)
	if err != nil {
		return err
	}
	out["store.wal_replay_ms"] = float64(time.Since(began)) / 1e6
	defer w.Close()
	if got := w.Recovered().Records; got != sz.walReplay {
		return fmt.Errorf("wal replay recovered %d records, want %d", got, sz.walReplay)
	}
	return nil
}

func probeLocalStore(_ context.Context, sz probeSizes, _ string, out map[string]float64) (err error) {
	ls := dht.NewLocalStore()
	val := probeValue
	if out["dht.localstore_put_us"], err = medianOf(sz.calls, time.Microsecond, func(i int) error {
		it := probeItem(i)
		val.TS = core.TS(uint64(i + 1)) // always newer: PutIfNewer stores
		if !ls.Put(it.RingID, it.Qual, val, dht.PutIfNewer) {
			return fmt.Errorf("localstore put %d rejected", i)
		}
		return nil
	}); err != nil {
		return err
	}
	out["dht.localstore_get_us"], err = medianOf(sz.calls, time.Microsecond, func(i int) error {
		it := probeItem(i)
		if _, ok := ls.Get(it.RingID, it.Qual); !ok {
			return fmt.Errorf("localstore get %d missed", i)
		}
		return nil
	})
	return err
}

// rawPeer is one peer of a probe ring, assembled from the layers
// themselves so that Ring.Lookup, dht.Client and kts.Service can be
// called directly.
type rawPeer struct {
	env  *network.RealEnv
	ep   *tcpwire.Endpoint
	node dht.RingNode
}

func (p *rawPeer) close() {
	p.node.Crash()
	p.env.Close()
	p.ep.Close()
}

// formRawRing forms a probe ring, starting over when the ring does not
// come up: a CAN overlay joined this quickly now and then wedges a zone
// ("routing stuck") and never recovers.
func formRawRing(ctx context.Context, kind dcdht.Ring, n int) ([]*rawPeer, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var peers []*rawPeer
		if peers, err = formRawRingOnce(ctx, kind, n); err == nil {
			return peers, nil
		}
	}
	return nil, err
}

func formRawRingOnce(ctx context.Context, kind dcdht.Ring, n int) ([]*rawPeer, error) {
	var peers []*rawPeer
	closeAll := func() {
		for _, p := range peers {
			p.close()
		}
	}
	for i := 0; i < n; i++ {
		ep, err := tcpwire.Listen("127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		env := network.NewRealEnv(int64(71 + i))
		id := hashing.NodeID(string(ep.Addr()))
		var node dht.RingNode
		switch kind {
		case dcdht.RingChord:
			node = chord.New(env, ep, id, chord.Config{StabilizeEvery: stabilizeEvery, FixFingersEvery: stabilizeEvery, CheckPredEvery: stabilizeEvery, RPCTimeout: 2 * time.Second})
		case dcdht.RingCAN:
			node = can.New(env, ep, id, can.Config{PingEvery: stabilizeEvery, RPCTimeout: 2 * time.Second})
		default:
			node = onehop.New(env, ep, id, onehop.Config{PingEvery: stabilizeEvery, RPCTimeout: 2 * time.Second})
		}
		peers = append(peers, &rawPeer{env: env, ep: ep, node: node})
		if i > 0 {
			time.Sleep(joinSpacing)
		}
		if i == 0 {
			node.CreateRing()
		} else if err := joinRetrying(node, peers[0].ep.Addr()); err != nil {
			closeAll()
			return nil, fmt.Errorf("%s ring join %d: %w", kind, i, err)
		}
		node.Start()
	}
	if err := rawRingGate(ctx, peers); err != nil {
		closeAll()
		return nil, fmt.Errorf("%s ring: %w", kind, err)
	}
	return peers, nil
}

// joinRetrying joins node through bootstrap, retrying while the ring is
// still digesting the previous join (CAN refuses a join it cannot route
// yet).
func joinRetrying(node dht.RingNode, bootstrap network.Addr) error {
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if err = node.Join(bootstrap); err == nil {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return err
}

// rawRingGate waits until a store at every replica position of a probe
// key succeeds from every peer - each lookup finds a peer that agrees it
// owns the position - three rounds running.
func rawRingGate(ctx context.Context, peers []*rawPeer) error {
	set := hashing.NewSet(replicas)
	round := func() error {
		for i, p := range peers {
			cl := dht.NewClient(p.node, "ready")
			key := core.Key(fmt.Sprintf("ready-%02d", i))
			for _, h := range set.Hr {
				if err := cl.PutH(ctx, key, h, core.Value{TS: core.TS(1)}, dht.PutOverwrite); err != nil {
					return err
				}
			}
		}
		return nil
	}
	const probeGateCap = 10 * time.Second
	deadline := time.Now().Add(probeGateCap)
	var err error
	for clean := 0; clean < gateCleanRuns; {
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready within %v: %w", probeGateCap, err)
		}
		if err = round(); err != nil {
			clean = 0
			time.Sleep(100 * time.Millisecond)
			continue
		}
		clean++
	}
	return nil
}

// probeRings times Ring.Lookup on each substrate, and on the chord ring
// the layers stacked directly on it: dht.Client and kts.Service.
func probeRings(ctx context.Context, sz probeSizes, _ string, out map[string]float64) error {
	for _, kind := range []dcdht.Ring{dcdht.RingChord, dcdht.RingOneHop, dcdht.RingCAN} {
		peers, err := formRawRing(ctx, kind, sz.nodes)
		if err != nil {
			return err
		}
		err = probeRing(ctx, sz, kind, peers, out)
		for _, p := range peers {
			p.close()
		}
		if err != nil {
			return fmt.Errorf("%s ring: %w", kind, err)
		}
	}
	return nil
}

func probeRing(ctx context.Context, sz probeSizes, kind dcdht.Ring, peers []*rawPeer, out map[string]float64) error {
	rng := rand.New(rand.NewSource(9))
	hops := 0
	us, err := medianOf(sz.calls, time.Microsecond, func(i int) error {
		_, h, err := peers[i%len(peers)].node.Lookup(ctx, core.ID(rng.Uint64()))
		hops += h
		return err
	})
	if err != nil {
		return err
	}
	out[string(kind)+".lookup_us"] = us
	out[string(kind)+".hops_per_lookup"] = float64(hops) / float64(sz.calls)
	if kind != dcdht.RingChord {
		return nil
	}

	set := hashing.NewSet(replicas)
	clients := make([]*dht.Client, len(peers))
	services := make([]*kts.Service, len(peers))
	for i, p := range peers {
		clients[i] = dht.NewClient(p.node, "probe")
		services[i] = kts.New(p.node, set, "probe", kts.Config{GraceDelay: graceDelay, RPCTimeout: 30 * time.Second})
	}
	if out["dht.puth_us"], err = medianOf(sz.calls, time.Microsecond, func(i int) error {
		return clients[i%len(clients)].PutH(ctx, keyName(i%keyCount), set.Hr[i%replicas], probeValue, dht.PutOverwrite)
	}); err != nil {
		return err
	}
	if out["dht.geth_us"], err = medianOf(sz.calls, time.Microsecond, func(i int) error {
		_, err := clients[(i+1)%len(clients)].GetH(ctx, keyName(i%keyCount), set.Hr[i%replicas])
		return err
	}); err != nil {
		return err
	}

	// A first GenTS of a key pays counter initialisation; later ones do
	// not. Issuers rotate, so most calls come from a non-responsible peer.
	if out["kts.gen_ts_new_key_ms"], err = medianOf(sz.newKeys, time.Millisecond, func(i int) error {
		_, err := services[i%len(services)].GenTS(ctx, core.Key(fmt.Sprintf("kts-probe-%04d", i)))
		return err
	}); err != nil {
		return err
	}
	warm := func(i int) core.Key { return core.Key(fmt.Sprintf("kts-probe-%04d", i%sz.newKeys)) }
	if out["kts.gen_ts_us"], err = medianOf(sz.calls, time.Microsecond, func(i int) error {
		_, err := services[(i+1)%len(services)].GenTS(ctx, warm(i))
		return err
	}); err != nil {
		return err
	}
	out["kts.last_ts_us"], err = medianOf(sz.calls, time.Microsecond, func(i int) error {
		_, err := services[(i+2)%len(services)].LastTS(ctx, warm(i))
		return err
	})
	return err
}

// probeNodes measures what needs whole dcdht.Nodes: 8-key batches, and
// the gateway's own cost over a direct Node.Get.
func probeNodes(ctx context.Context, sz probeSizes, tmp string, out map[string]float64) error {
	const batch = 8
	c, err := formCluster(clusterSpec{nodes: sz.nodes, ring: dcdht.RingChord, backends: min(4, sz.nodes), keys: batch}, tmp)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.gate(ctx); err != nil {
		return err
	}
	keys := make([]dcdht.Key, batch)
	items := make([]dcdht.KV, batch)
	for k := range keys {
		keys[k] = keyName(k)
		items[k] = dcdht.KV{Key: keys[k], Data: makePayload(keys[k], writeID{0, k})}
		if _, err := c.nodes[k%len(c.nodes)].Put(ctx, keys[k], items[k].Data); err != nil {
			return err
		}
	}
	perKey := func(rs []dcdht.MultiResult, err error) error {
		for _, r := range rs {
			if err == nil {
				err = r.Err
			}
		}
		return err
	}
	if out["ums.put_multi8_ms"], err = medianOf(sz.batches, time.Millisecond, func(i int) error {
		return perKey(c.nodes[i%len(c.nodes)].PutMulti(ctx, items))
	}); err != nil {
		return err
	}
	if out["ums.get_multi8_ms"], err = medianOf(sz.batches, time.Millisecond, func(i int) error {
		return perKey(c.nodes[i%len(c.nodes)].GetMulti(ctx, keys))
	}); err != nil {
		return err
	}

	// Direct and gateway reads of the same key run back to back, in
	// alternating order, so neither side always reads the warmer key;
	// direct reads use the gateway's own backends, so both issue from the
	// same nodes.
	direct, viaGW := make([]float64, sz.calls), make([]float64, sz.calls)
	for i := 0; i < sz.calls; i++ {
		key := keys[i%batch]
		sides := []struct {
			cl  dcdht.Client
			out []float64
		}{{c.nodes[i%c.spec.backends], direct}, {c.gw, viaGW}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			began := time.Now()
			if _, err := s.cl.Get(ctx, key); err != nil {
				return err
			}
			s.out[i] = float64(time.Since(began)) / 1e3
		}
	}
	out["gateway.overhead_us"] = median(viaGW) - median(direct)
	return nil
}

func probeKernel(_ context.Context, sz probeSizes, _ string, out map[string]float64) error {
	p := perf.KernelBench(perf.KernelConfig{Seed: 1, Peers: 1000, EventsPerPeer: max(1, sz.calls/10)})
	out["simnet.events_per_wall_s"] = p.EventsPerSec
	return nil
}

func probeGenerator(_ context.Context, sz probeSizes, _ string, out map[string]float64) error {
	s := newOpStream(streamSpec{zipf: true, keys: keyCount, putEvery: 2, relaxed: true}, 1, 0, 0)
	n := sz.calls * 10
	var sink int
	began := time.Now()
	for i := 0; i < n; i++ {
		op := s.next()
		sink += len(makePayload(keyName(op.Key), writeID{0, op.Seq}))
	}
	out["workload.gen_ns_per_op"] = float64(time.Since(began)) / float64(n)
	_ = sink
	return nil
}
