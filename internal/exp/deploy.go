// Package exp is the evaluation harness: it builds simulated deployments
// (Chord + KTS + UMS + BRK per peer), drives the paper's Table 1
// workload — Poisson churn with join-per-departure, Poisson per-key
// updates, queries at uniformly random times — and regenerates every
// figure of §5 as a table of series.
//
// Run is the one runner of that workload: Figures 6–12, the ablations
// and the repair, scenario, recovery and consistency figures are each a
// Scenario it plays. The lookup figure's evenly spaced leave+join window
// measures routing-state maintenance and is not a second runner.
package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network/simwire"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/repair"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/workload"
)

// Algorithm names one of the three compared protocols.
type Algorithm string

// The paper's three contenders (§5.1).
const (
	AlgBRK         Algorithm = "BRK"
	AlgUMSIndirect Algorithm = "UMS-Indirect"
	AlgUMSDirect   Algorithm = "UMS-Direct"
)

// Algorithms lists the contenders in the paper's plotting order.
var Algorithms = []Algorithm{AlgBRK, AlgUMSIndirect, AlgUMSDirect}

// Peer is one simulated peer: the stack every deployment style runs,
// under the name and endpoint the simulated network knows it by.
type Peer struct {
	Name string
	EP   *simwire.Endpoint
	*peer.Stack
}

// Alive reports whether the peer is still part of the overlay.
func (p *Peer) Alive() bool { return p.Node.Alive() }

// DeployConfig parameterises a simulated deployment: what belongs to the
// deployment itself, and the peer.Config every peer is built from. The
// deployment owns that config's Obs (see NoObs).
type DeployConfig struct {
	Peers int
	Seed  int64
	Net   simwire.Config
	// Durable backs every peer with a retained depot slot keyed by peer
	// name — the simulation analogue of a real node's -data-dir, kept
	// deterministically in memory so replays stay bit-identical. A crash
	// keeps the slot, and RestartWithState resumes from it: recovered
	// replicas and counters feed the §4.2.2 restart path. Without it a
	// restarted peer comes back blank (crash-and-forget).
	Durable bool
	// NoObs disables the deployment-wide metrics registry. The default
	// (instrumented) is deterministic — metrics consume no RNG stream and
	// time only virtual clocks — so this switch exists for the test that
	// proves exactly that by comparing instrumented and uninstrumented
	// replays, not as a performance knob.
	NoObs bool
	peer.Config
}

// Table1Deployment returns the paper's Table 1 environment at the given
// population: WAN links, |Hr| = 10 and chord's maintenance periods. Replicas
// hand over on responsibility changes, as the library does by default;
// Table1Scenario switches to the paper's data model on top.
func Table1Deployment(peers int, seed int64) DeployConfig {
	return DeployConfig{
		Peers: peers,
		Seed:  seed,
		Net:   simwire.Table1(),
		Config: peer.Config{
			Replicas: 10,
			Chord: chord.Config{
				StabilizeEvery:  30 * time.Second,
				FixFingersEvery: 45 * time.Second,
				CheckPredEvery:  30 * time.Second,
				RPCTimeout:      2 * time.Second,
			},
		},
	}
}

// UseCluster switches c to the cluster profile of §5.2's 64-node LAN
// experiment: simwire.Cluster() links, chord RPCs that give up after
// 250ms, 2s maintenance periods, and a 10ms indirect grace delay, since
// commits land in milliseconds on a LAN.
func (c *DeployConfig) UseCluster() {
	c.Net = simwire.Cluster()
	c.Chord.RPCTimeout = 250 * time.Millisecond
	c.Chord.StabilizeEvery = 2 * time.Second
	c.Chord.FixFingersEvery = 2 * time.Second
	c.Chord.CheckPredEvery = 2 * time.Second
	c.KTS.GraceDelay = 10 * time.Millisecond
}

// Deployment is a running simulated network of peers.
type Deployment struct {
	K     *simnet.Kernel
	Net   *simwire.Network
	Set   hashing.Set
	Peers []*Peer      // all peers ever created; filter with Alive
	Depot *store.Depot // nil unless DeployConfig.Durable
	// Obs is the deployment-wide metrics registry: every peer registers
	// the same families, so counters aggregate cluster-wide at scrape
	// time. Nil when DeployConfig.NoObs.
	Obs *obs.Registry

	peerCfg  peer.Config // what every peer of this deployment is built from
	nextName int
	// restarting holds the names whose restart is still joining: the new
	// incarnation already owns the name's address but is not yet in
	// Peers, so the name must not be offered for restart again.
	restarting map[string]bool
}

// NewDeployment builds cfg.Peers peers, assembles the ring
// administratively and starts maintenance. The churn process later
// exercises the protocol join/leave/fail paths.
func NewDeployment(cfg DeployConfig) *Deployment {
	k := simnet.New(cfg.Seed)
	d := &Deployment{
		K:   k,
		Net: simwire.New(k, cfg.Net),
		Set: hashing.NewSet(cfg.Replicas),
	}
	if cfg.Durable {
		d.Depot = store.NewDepot()
	}
	if !cfg.NoObs {
		d.Obs = obs.NewRegistry()
	}
	d.peerCfg = cfg.Config
	d.peerCfg.Obs = d.Obs
	nodes := make([]dht.RingNode, 0, cfg.Peers)
	for i := 0; i < cfg.Peers; i++ {
		p := d.newPeer()
		d.Peers = append(d.Peers, p)
		nodes = append(nodes, p.Node)
	}
	peer.AssembleRing(cfg.Ring, nodes)
	for _, p := range d.Peers {
		p.Start()
	}
	return d
}

// newPeer creates a peer under the next fresh name (not joined).
func (d *Deployment) newPeer() *Peer {
	name := fmt.Sprintf("peer%d", d.nextName)
	d.nextName++
	return d.newPeerNamed(name)
}

// newPeerNamed creates a peer with all services attached (not joined).
// Under Durable the peer's storage is its depot slot — re-using a dead
// peer's name resumes that peer's retained state. A peer.Config that
// peer.New rejects (an unknown ring, no replicas) panics: it is a
// harness programming error, and the first peer of NewDeployment
// already hits it.
func (d *Deployment) newPeerNamed(name string) *Peer {
	ep := d.Net.NewEndpoint(name)
	stack, err := peer.New(d.Net.Env(), ep, d.Depot.Open(name), d.peerCfg)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return &Peer{Name: name, EP: ep, Stack: stack}
}

// RandomLivePeer picks a live peer uniformly using the given stream.
func (d *Deployment) RandomLivePeer(rng interface{ Intn(int) int }) *Peer {
	live := d.LivePeers()
	if len(live) == 0 {
		return nil
	}
	return live[rng.Intn(len(live))]
}

// LivePeers returns the currently live peers.
func (d *Deployment) LivePeers() []*Peer {
	out := make([]*Peer, 0, len(d.Peers))
	for _, p := range d.Peers {
		if p.Alive() {
			out = append(out, p)
		}
	}
	return out
}

// Depart removes a peer: gracefully (Leave, with key and counter
// handoff) or by failure (Crash, state lost). Must run inside a kernel
// process.
func (d *Deployment) Depart(p *Peer, fail bool) {
	if fail {
		p.Node.Crash()
		d.Net.Kill(p.EP.Addr())
		return
	}
	p.Node.Leave()
	d.Net.Kill(p.EP.Addr())
}

// SpawnJoin creates a fresh peer and joins it through a live bootstrap,
// keeping the population constant after departures (as in the paper's
// churn model). Under heavy churn a join can catch a dying bootstrap, so
// a couple of fresh bootstraps are tried before giving up. A peer that
// joins during an active network partition is confined to its
// bootstrap's side — churn replacements must not bridge a split. Must
// run inside a kernel process. Returns nil if every attempt fails.
func (d *Deployment) SpawnJoin(rng interface{ Intn(int) int }) *Peer {
	for attempt := 0; attempt < 3; attempt++ {
		boot := d.RandomLivePeer(rng)
		if boot == nil {
			return nil
		}
		p := d.newPeer()
		// Assign the partition side before the join traffic flows, so
		// even the join RPCs cannot cross the split.
		d.Net.JoinGroupOf(p.EP.Addr(), boot.EP.Addr())
		if err := p.Node.Join(boot.Node.Self().Addr); err != nil {
			p.Node.Crash()
			d.Net.Kill(p.EP.Addr())
			continue
		}
		p.Start()
		d.Peers = append(d.Peers, p)
		return p
	}
	return nil
}

// RestartablePeers lists the names of peers that are down but could be
// restarted (dead, not already superseded by a newer incarnation of the
// same name, and not in the middle of a restart).
func (d *Deployment) RestartablePeers() []string {
	latest := make(map[string]*Peer, len(d.Peers))
	var order []string
	for _, p := range d.Peers {
		if _, seen := latest[p.Name]; !seen {
			order = append(order, p.Name)
		}
		latest[p.Name] = p
	}
	var out []string
	for _, name := range order {
		if !latest[name].Alive() && !d.restarting[name] {
			out = append(out, name)
		}
	}
	return out
}

// RestartWithState restarts a dead peer under its original name: the
// old endpoint is detached, a new incarnation attaches at the same
// address (hence the same ring position), joins through a live
// bootstrap and — under Durable — resumes from the retained depot slot,
// then runs the §4.2.2 recovery strategy so counters that moved on get
// corrected. Without Durable the peer comes back blank: restart-as-new,
// the crash-and-forget baseline. Must run inside a kernel process.
// Returns nil when the peer is unknown, still alive, already restarting,
// or no bootstrap is reachable.
func (d *Deployment) RestartWithState(name string, rng interface{ Intn(int) int }) *Peer {
	var old *Peer
	for _, p := range d.Peers {
		if p.Name == name {
			old = p
		}
	}
	if old == nil || old.Alive() || d.restarting[name] {
		return nil
	}
	if d.restarting == nil {
		d.restarting = map[string]bool{}
	}
	d.restarting[name] = true
	defer delete(d.restarting, name)
	d.Net.Remove(old.EP.Addr())
	// Like SpawnJoin, a join can route through a peer that is itself
	// still down (stale fingers survive a while), so a few bootstraps
	// are tried; a failed incarnation is torn down to free the name.
	var p *Peer
	for attempt := 0; attempt < 3; attempt++ {
		boot := d.RandomLivePeer(rng)
		if boot == nil {
			return nil
		}
		cand := d.newPeerNamed(name)
		d.Net.JoinGroupOf(cand.EP.Addr(), boot.EP.Addr())
		if err := cand.Node.Join(boot.Node.Self().Addr); err != nil {
			cand.Node.Crash()
			d.Net.Kill(cand.EP.Addr())
			d.Net.Remove(cand.EP.Addr())
			continue
		}
		p = cand
		break
	}
	if p == nil {
		return nil
	}
	p.Start()
	d.Peers = append(d.Peers, p)
	if d.Depot != nil {
		// Recovery strategy: ship the recovered counters to whoever is
		// responsible now. Bounded so a half-partitioned ring cannot
		// wedge the restart.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		p.KTS.RecoverTo(ctx)
		cancel()
	}
	return p
}

// RepairStats aggregates the maintenance counters over every peer ever
// created — departed peers' heals still happened and still count.
func (d *Deployment) RepairStats() repair.Stats {
	var total repair.Stats
	for _, p := range d.Peers {
		if p.Repair != nil {
			total.Add(p.Repair.Stats())
		}
	}
	return total
}

// workloadClient is the deployment as one dht.Ops: each operation is
// issued through UMS from a live peer drawn off a dedicated
// deterministic stream, mirroring how the paper's harness issues
// queries from random peers.
type workloadClient struct {
	d   *Deployment
	rng interface{ Intn(int) int }
}

func (c workloadClient) Insert(ctx context.Context, key core.Key, data []byte) (dht.OpResult, error) {
	p := c.d.RandomLivePeer(c.rng)
	if p == nil {
		return dht.OpResult{}, fmt.Errorf("exp: no live peer: %w", core.ErrUnreachable)
	}
	return p.Insert(ctx, key, data)
}

func (c workloadClient) Retrieve(ctx context.Context, key core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	p := c.d.RandomLivePeer(c.rng)
	if p == nil {
		return dht.OpResult{}, fmt.Errorf("exp: no live peer: %w", core.ErrUnreachable)
	}
	return p.Retrieve(ctx, key, pol)
}

// RunWorkload drives a workload spec against the deployment as a
// simulation process: the generator's operation stream, the issuing
// peers and every latency sample all run in virtual time, so the same
// seed replays the identical report bit for bit. Unlike Do, the kernel
// is driven until the run finishes however long the spec's window is;
// a run only aborts if the simulation goes completely silent (no
// events at all for a sustained stretch of virtual time — with ring
// maintenance timers alive that means a genuine stall).
func (d *Deployment) RunWorkload(ctx context.Context, spec workload.Spec) (*workload.Report, error) {
	return d.RunWorkloadWith(ctx, spec, workloadClient{d: d, rng: d.K.NewRand("workload-issuer")})
}

// RunWorkloadWith is RunWorkload against any dht.Ops — the gateway
// figure drives the same spec through a front-end tier and through
// direct peer issue, on deployments built from the same seed.
func (d *Deployment) RunWorkloadWith(ctx context.Context, spec workload.Spec, cl dht.Ops) (*workload.Report, error) {
	var rep *workload.Report
	var err error
	done := false
	d.K.Go(func() {
		rep, err = workload.Run(ctx, d.Net.Env(), cl, spec)
		done = true
	})
	idle := 0
	for !done {
		if d.K.Run(d.K.Now()+time.Hour) == 0 {
			if idle++; idle > 100 {
				return nil, fmt.Errorf("exp: workload stalled: %w", core.ErrTimeout)
			}
		} else {
			idle = 0
		}
	}
	return rep, err
}

// Do runs fn as a simulation process and drives the kernel until it
// completes. Intended for setup and synchronous test operations.
func (d *Deployment) Do(fn func()) bool {
	done := false
	d.K.Go(func() {
		fn()
		done = true
	})
	for i := 0; i < 100000 && !done; i++ {
		d.K.Run(d.K.Now() + time.Second)
	}
	return done
}

// RunFor advances simulated time by dt.
func (d *Deployment) RunFor(dt time.Duration) {
	d.K.Run(d.K.Now() + dt)
}
