package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	dcdht "repro"
)

// clusterSpec is the deployment one TCP workload runs on.
type clusterSpec struct {
	nodes    int
	ring     dcdht.Ring
	durable  bool // a WAL under every node, FsyncBatch
	backends int  // > 0: ops go through a Gateway over this many nodes
	keys     int
}

const (
	graceDelay     = 20 * time.Millisecond
	stabilizeEvery = 200 * time.Millisecond
	fsyncPolicy    = dcdht.FsyncBatch
	// preloadClients issue the preload's first-puts. A first put sleeps
	// through the grace delay and a 50 ms poll, so the preload is wider
	// than the measured load's two clients to keep three set-ups per run
	// affordable; its latency is still one first-put's.
	preloadClients = 16
	gateCleanRuns  = 3
	gateCap        = 30 * time.Second
	// joinSpacing separates the joins by half a stabilize period. Sixteen
	// back-to-back joins leave chord converging for 1 to 4 s, a different
	// time on every run (setup_s spread 45 %); spaced like this the ring
	// is ready when the last node has joined and the gate passes at its
	// first three rounds, every time.
	joinSpacing = stabilizeEvery / 2
	// listenBase is the port of node 0; node i listens on listenBase+i. A
	// node's ring position is the hash of its address, so fixed ports fix
	// the topology: every run, on every commit, measures the same ring.
	// The ports lie below the kernel's ephemeral range, so the benchmark's
	// own outgoing connections never take one.
	listenBase = 23100
)

// cluster is a formed ring of in-process nodes on host loopback, with no
// injected delay.
type cluster struct {
	spec    clusterSpec
	nodes   []*dcdht.Node
	gw      *dcdht.Gateway
	dataDir string // parent of the nodes' data dirs; "" when volatile
	// fallbackPorts counts nodes whose fixed port was taken and that
	// listen on a kernel-chosen one instead (the topology then differs).
	fallbackPorts int
	// gateRounds and gateRetries record how the readiness gate went.
	gateRounds, gateRetries int
}

// formCluster starts the nodes and joins them into one ring. tmp is the
// directory durable nodes keep their logs under.
func formCluster(sp clusterSpec, tmp string) (*cluster, error) {
	c := &cluster{spec: sp}
	if sp.durable {
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return nil, fmt.Errorf("form cluster: %w", err)
		}
		c.dataDir = dir
	}
	for i := 0; i < sp.nodes; i++ {
		cfg := dcdht.NodeConfig{
			Replicas:       replicas,
			Ring:           sp.ring,
			Seed:           int64(31 + i),
			StabilizeEvery: stabilizeEvery,
			GraceDelay:     graceDelay,
		}
		if sp.durable {
			cfg.DataDir = filepath.Join(c.dataDir, fmt.Sprintf("n%02d", i))
			cfg.Fsync = fsyncPolicy
		}
		nd, err := dcdht.StartNode(fmt.Sprintf("127.0.0.1:%d", listenBase+i), cfg)
		if err != nil && sp.durable {
			os.RemoveAll(cfg.DataDir) // the failed start may have created the log
		}
		if err != nil {
			c.fallbackPorts++
			nd, err = dcdht.StartNode("127.0.0.1:0", cfg)
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("form cluster: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
		if i == 0 {
			nd.CreateRing()
			continue
		}
		time.Sleep(joinSpacing)
		if err := nd.Join(c.nodes[0].Addr()); err != nil {
			c.close()
			return nil, fmt.Errorf("form cluster: join %d: %w", i, err)
		}
	}
	if sp.backends > 0 {
		pool := make([]dcdht.Client, sp.backends)
		for i := range pool {
			pool[i] = c.nodes[i]
		}
		gw, err := dcdht.NewGateway(pool, dcdht.GatewayConfig{Seed: 7})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("form cluster: %w", err)
		}
		c.gw = gw
	}
	return c, nil
}

// client returns what the i-th op is issued through: the gateway when
// there is one, else the nodes in rotation.
func (c *cluster) client(i int) dcdht.Client {
	if c.gw != nil {
		return c.gw
	}
	return c.nodes[i%len(c.nodes)]
}

// gate is the readiness check that replaces a fixed sleep: a probe put
// and get must succeed from every node for gateCleanRuns consecutive
// rounds. It fails the run after gateCap.
func (c *cluster) gate(ctx context.Context) error {
	deadline := time.Now().Add(gateCap)
	clean := 0
	for clean < gateCleanRuns {
		if time.Now().After(deadline) {
			return fmt.Errorf("readiness gate: ring not ready after %v (%d rounds, %d failed)", gateCap, c.gateRounds, c.gateRetries)
		}
		c.gateRounds++
		if err := c.gateRound(ctx); err != nil {
			c.gateRetries++
			clean = 0
			time.Sleep(100 * time.Millisecond)
			continue
		}
		clean++
	}
	return nil
}

func (c *cluster) gateRound(ctx context.Context) error {
	for i, nd := range c.nodes {
		key := dcdht.Key(fmt.Sprintf("ready-%02d", i))
		octx, cancel := context.WithTimeout(ctx, 2*time.Second)
		res, err := nd.Put(octx, key, []byte("ready"))
		if err == nil && res.Stored != replicas {
			err = fmt.Errorf("stored %d of %d replicas", res.Stored, replicas)
		}
		if err == nil {
			_, err = nd.Get(octx, key)
		}
		cancel()
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// preload writes every key once (a first put each) from preloadClients
// goroutines and returns the puts' latencies in milliseconds. Writer ids
// start at preloadWriterBase so they never collide with load clients.
func (c *cluster) preload(ctx context.Context, chk *checker) ([]float64, error) {
	const preloadWriterBase = 1000
	lat := make([]float64, c.spec.keys)
	errs := make([]error, preloadClients)
	var wg sync.WaitGroup
	for w := 0; w < preloadClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < c.spec.keys; k += preloadClients {
				id := writeID{Writer: preloadWriterBase + w, Seq: k}
				start := time.Now()
				res, err := c.client(k).Put(ctx, keyName(k), makePayload(keyName(k), id))
				lat[k] = float64(time.Since(start)) / 1e6
				if err != nil {
					errs[w] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
				chk.putAcked(k, id, res)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// close stops every node the way a crash would (no hand-off: nothing is
// read afterwards) and removes the data dirs.
func (c *cluster) close() {
	if c.gw != nil {
		c.gw.Close()
	}
	for _, nd := range c.nodes {
		nd.Close()
	}
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

// counters sums every counter and gauge family over the nodes (and the
// gateway's registry), keyed by family name; histogram families
// contribute name+"_count" and name+"_sum".
func (c *cluster) counters() map[string]float64 {
	out := map[string]float64{}
	for _, nd := range c.nodes {
		addSnapshot(out, nd.Metrics().Snapshot())
	}
	if c.gw != nil {
		addSnapshot(out, c.gw.Metrics().Snapshot())
	}
	return out
}

func addSnapshot(out map[string]float64, snap *dcdht.MetricsSnapshot) {
	for _, f := range snap.Families {
		for _, s := range f.Series {
			if s.Hist != nil {
				out[f.Name+"_count"] += float64(s.Hist.Count)
				out[f.Name+"_sum"] += s.Hist.Sum
				continue
			}
			out[f.Name] += s.Value
		}
	}
}

// delta is after - before for every family in after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
