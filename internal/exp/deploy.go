// Package exp is the evaluation harness: it builds simulated deployments
// (Chord + KTS + UMS + BRK per peer), drives the paper's Table 1
// workload — Poisson churn with join-per-departure, Poisson per-key
// updates, queries at uniformly random times — and regenerates every
// figure of §5 as a table of series.
package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network/simwire"
	"repro/internal/obs"
	"repro/internal/onehop"
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

// DeployConfig parameterises a simulated deployment.
type DeployConfig struct {
	Peers    int
	Replicas int // |Hr|
	Seed     int64
	Net      simwire.Config
	// Ring picks the substrate; zero value means peer.RingChord, keeping
	// every pre-existing call site unchanged.
	Ring   peer.RingKind
	Chord  chord.Config
	CAN    can.Config    // used when Ring == peer.RingCAN
	OneHop onehop.Config // used when Ring == peer.RingOneHop
	// RepublishEvery runs each peer's periodic republisher at this
	// period (0 = off); RepublishPerRound bounds one round's pushes.
	RepublishEvery    time.Duration
	RepublishPerRound int
	// KTS tunes the timestamping service: the counter initialization
	// mode, the indirect algorithm's grace delay, periodic inspection and
	// the §4.3 RLU ablation.
	KTS kts.Config
	// PaperDataModel disables replica handoff on responsibility changes,
	// matching the paper's DHT model (§2): a replica whose responsible
	// departs is unavailable until the next update re-inserts it. This
	// is what makes the probability of currency and availability decay
	// between updates — the dynamic behind Figures 7–12. KTS counters
	// still move (the direct algorithm is about counters, §4.2.1).
	PaperDataModel bool
	// Repair configures the replica-maintenance subsystem (anti-entropy
	// sweep + read-repair). The zero value keeps it off, preserving the
	// paper's dynamics; the repair figures and scenarios switch it on.
	Repair repair.Config
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
}

// Deployment is a running simulated network of peers.
type Deployment struct {
	Cfg   DeployConfig
	K     *simnet.Kernel
	Net   *simwire.Network
	Set   hashing.Set
	Peers []*Peer      // all peers ever created; filter with Alive
	Depot *store.Depot // nil unless Cfg.Durable
	// Obs is the deployment-wide metrics registry: every peer registers
	// the same families, so counters aggregate cluster-wide at scrape
	// time. Nil when Cfg.NoObs.
	Obs *obs.Registry

	peerCfg  peer.Config // what every peer of this deployment is built from
	nextName int
}

// NewDeployment builds cfg.Peers peers, assembles the ring
// administratively and starts maintenance. The churn process later
// exercises the protocol join/leave/fail paths.
func NewDeployment(cfg DeployConfig) *Deployment {
	k := simnet.New(cfg.Seed)
	cfg.Chord.NoDataHandoff = cfg.PaperDataModel
	cfg.CAN.NoDataHandoff = cfg.PaperDataModel
	cfg.OneHop.NoDataHandoff = cfg.PaperDataModel
	d := &Deployment{
		Cfg: cfg,
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
	d.peerCfg = peer.Config{
		Set:       d.Set,
		Ring:      cfg.Ring,
		Chord:     cfg.Chord,
		CAN:       cfg.CAN,
		OneHop:    cfg.OneHop,
		Republish: dht.RepublishConfig{Every: cfg.RepublishEvery, PerRound: cfg.RepublishPerRound},
		KTS:       cfg.KTS,
		Repair:    cfg.Repair,
		Obs:       d.Obs,
	}
	nodes := make([]dht.RingNode, 0, cfg.Peers)
	for i := 0; i < cfg.Peers; i++ {
		p := d.newPeer()
		d.Peers = append(d.Peers, p)
		nodes = append(nodes, p.Node)
	}
	assembleRing(cfg.Ring, nodes)
	for _, p := range d.Peers {
		p.Start()
	}
	return d
}

// assembleRing wires the freshly created nodes administratively, per
// substrate.
func assembleRing(kind peer.RingKind, nodes []dht.RingNode) {
	switch kind {
	case peer.RingCAN:
		concrete := make([]*can.Node, len(nodes))
		for i, n := range nodes {
			concrete[i] = n.(*can.Node)
		}
		can.AssembleSpace(concrete)
	case peer.RingOneHop:
		concrete := make([]*onehop.Node, len(nodes))
		for i, n := range nodes {
			concrete[i] = n.(*onehop.Node)
		}
		onehop.AssembleRing(concrete)
	default:
		concrete := make([]*chord.Node, len(nodes))
		for i, n := range nodes {
			concrete[i] = n.(*chord.Node)
		}
		chord.AssembleRing(concrete)
	}
}

// newPeer creates a peer under the next fresh name (not joined).
func (d *Deployment) newPeer() *Peer {
	name := fmt.Sprintf("peer%d", d.nextName)
	d.nextName++
	return d.newPeerNamed(name)
}

// newPeerNamed creates a peer with all services attached (not joined).
// Under Durable the peer's storage is its depot slot — re-using a dead
// peer's name resumes that peer's retained state. An unknown
// DeployConfig.Ring panics: it is a harness programming error, and the
// first peer of NewDeployment already hits it.
func (d *Deployment) newPeerNamed(name string) *Peer {
	ep := d.Net.NewEndpoint(name)
	var backing store.Store
	if d.Depot != nil {
		backing = d.Depot.Open(name)
	}
	stack, err := peer.New(d.Net.Env(), ep, backing, d.peerCfg)
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
// restarted (dead, and not already superseded by a newer incarnation of
// the same name).
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
		if !latest[name].Alive() {
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
// Returns nil when the peer is unknown, still alive, or no bootstrap is
// reachable.
func (d *Deployment) RestartWithState(name string, rng interface{ Intn(int) int }) *Peer {
	var old *Peer
	for _, p := range d.Peers {
		if p.Name == name {
			old = p
		}
	}
	if old == nil || old.Alive() {
		return nil
	}
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

// workloadClient adapts the deployment to the workload engine's Client:
// each operation is issued through UMS from a live peer drawn off a
// dedicated deterministic stream, mirroring how the paper's harness
// issues queries from random peers.
type workloadClient struct {
	d   *Deployment
	rng interface{ Intn(int) int }
}

func (c workloadClient) Put(ctx context.Context, key core.Key, data []byte) (dht.OpResult, error) {
	p := c.d.RandomLivePeer(c.rng)
	if p == nil {
		return dht.OpResult{}, fmt.Errorf("exp: no live peer: %w", core.ErrUnreachable)
	}
	return p.UMS.Insert(ctx, key, data)
}

func (c workloadClient) Get(ctx context.Context, key core.Key) (dht.OpResult, error) {
	p := c.d.RandomLivePeer(c.rng)
	if p == nil {
		return dht.OpResult{}, fmt.Errorf("exp: no live peer: %w", core.ErrUnreachable)
	}
	return p.UMS.Retrieve(ctx, key)
}

// GetWith implements workload.LevelClient: a read at an explicit
// consistency level, so workload specs with a consistency mix exercise
// the UMS acceptance predicate end to end.
func (c workloadClient) GetWith(ctx context.Context, key core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	p := c.d.RandomLivePeer(c.rng)
	if p == nil {
		return dht.OpResult{}, fmt.Errorf("exp: no live peer: %w", core.ErrUnreachable)
	}
	return p.UMS.RetrieveWith(ctx, key, pol)
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

// RunWorkloadWith is RunWorkload against an arbitrary workload client —
// the gateway figure drives the same spec through a front-end tier and
// through direct peer issue, on deployments built from the same seed.
func (d *Deployment) RunWorkloadWith(ctx context.Context, spec workload.Spec, cl workload.Client) (*workload.Report, error) {
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
