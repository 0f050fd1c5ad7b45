// Package simwire is the simulated transport: it delivers RPCs between
// endpoints in virtual time on a simnet.Kernel, charging each message the
// latency and transmission delay of the paper's Table 1 network model
// (latency ~ N(200 ms, var 100), bandwidth ~ N(56 kbps, var 32)).
//
// Peers can be killed, which models the "fail" departure type: a killed
// endpoint silently drops traffic, so callers observe timeouts exactly as
// they would with a crashed peer.
//
// The link model is pluggable: a Conditions implementation decides every
// message's one-way delay and loss. The default Model keeps one
// deterministic RNG stream per directed link — all draws under one lock,
// so it is race-free by construction — and supports per-link Profile
// overrides (latency distribution, jitter, loss, bandwidth). On top of
// that the Network can be Partitioned into groups that cannot exchange
// messages until Heal, which is how the scenario engine scripts network
// splits.
package simwire

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Config parameterises the network model. Zero fields are completed from
// Table 1 of the paper.
type Config struct {
	// LatencyMS is the one-way message latency in milliseconds.
	LatencyMS stats.Normal
	// BandwidthKbps is the per-message link bandwidth in kilobits/s.
	BandwidthKbps stats.Normal
	// DefaultTimeout bounds Invoke round trips when the call does not
	// specify one. It is the failure detector's patience.
	DefaultTimeout time.Duration
}

// Table1 returns the paper's simulation parameters (Table 1).
func Table1() Config {
	return Config{
		LatencyMS:      stats.Normal{Mean: 200, Variance: 100, Min: 1},
		BandwidthKbps:  stats.Normal{Mean: 56, Variance: 32, Min: 8},
		DefaultTimeout: 2 * time.Second,
	}
}

// Cluster returns a profile for the 64-node 1 Gbps cluster of §5.1:
// sub-millisecond latency, effectively unconstrained bandwidth.
func Cluster() Config {
	return Config{
		LatencyMS:      stats.Normal{Mean: 0.3, Variance: 0.01, Min: 0.05},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 250 * time.Millisecond,
	}
}

func (c Config) applyDefaults() Config {
	t1 := Table1()
	if c.LatencyMS.Mean == 0 {
		c.LatencyMS = t1.LatencyMS
	}
	if c.BandwidthKbps.Mean == 0 {
		c.BandwidthKbps = t1.BandwidthKbps
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = t1.DefaultTimeout
	}
	return c
}

// Network owns the set of simulated endpoints, the pluggable link
// conditions model, and the partition state.
type Network struct {
	k   *simnet.Kernel
	cfg Config

	mu        sync.Mutex
	endpoints map[network.Addr]*Endpoint
	nextAddr  int
	totalMsgs uint64
	totalDrop uint64

	cond  Conditions
	model *Model // the default model when cond is ours, for SetProfile

	// partition maps an address to its group; addresses in different
	// groups cannot exchange messages. nil means no partition is active;
	// addresses absent from an active partition are unconstrained.
	partition map[network.Addr]int
}

// New builds a simulated network on kernel k with the default
// per-link conditions model.
func New(k *simnet.Kernel, cfg Config) *Network {
	cfg = cfg.applyDefaults()
	m := NewModel(k.NewRand, cfg)
	return &Network{
		k:         k,
		cfg:       cfg,
		endpoints: make(map[network.Addr]*Endpoint),
		cond:      m,
		model:     m,
	}
}

// Kernel returns the kernel driving this network.
func (n *Network) Kernel() *simnet.Kernel { return n.k }

// Env returns the simulation-backed execution environment.
func (n *Network) Env() network.Env { return Env(n.k) }

// Config returns the active network model.
func (n *Network) Config() Config { return n.cfg }

// Model returns the default conditions model so callers can layer
// per-link profiles onto it (SetProfile/ClearProfiles). It returns nil
// after SetConditions replaced the model with a custom implementation.
func (n *Network) Model() *Model {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.model
}

// SetConditions replaces the link conditions model wholesale. Passing a
// custom implementation detaches the default Model (Model() returns nil
// until another Model is installed). In-flight messages keep the delay
// they were planned with.
func (n *Network) SetConditions(c Conditions) {
	if c == nil {
		panic("simwire: nil Conditions")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cond = c
	if m, ok := c.(*Model); ok {
		n.model = m
	} else {
		n.model = nil
	}
}

// conditions returns the active model under the lock.
func (n *Network) conditions() Conditions {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cond
}

// Partition splits the network: each listed group can only exchange
// messages within itself. Addresses not listed in any group (e.g. peers
// attached after the split) are unconstrained and reach everyone —
// model them explicitly if that matters. A new call replaces the
// previous partition; Heal removes it.
func (n *Network) Partition(groups ...[]network.Addr) {
	p := make(map[network.Addr]int)
	for gi, g := range groups {
		for _, a := range g {
			p[a] = gi
		}
	}
	n.mu.Lock()
	n.partition = p
	n.mu.Unlock()
}

// JoinGroupOf assigns addr to ref's partition group: a peer that joins
// the overlay during a split necessarily joined through a bootstrap on
// one side, and must share that side's fate — otherwise every churn
// replacement would bridge the partition. No-op when no partition is
// active or ref is unconstrained.
func (n *Network) JoinGroupOf(addr, ref network.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partition == nil {
		return
	}
	if g, ok := n.partition[ref]; ok {
		n.partition[addr] = g
	}
}

// Heal removes the active partition; every pair of endpoints can
// exchange messages again (link profiles are untouched).
func (n *Network) Heal() {
	n.mu.Lock()
	n.partition = nil
	n.mu.Unlock()
}

// Reachable reports whether the active partition permits messages from
// a to b. It is true when no partition is active, when either address
// is unconstrained, or when both sit in the same group.
func (n *Network) Reachable(a, b network.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reachableLocked(a, b)
}

func (n *Network) reachableLocked(a, b network.Addr) bool {
	if n.partition == nil {
		return true
	}
	ga, oka := n.partition[a]
	gb, okb := n.partition[b]
	return !oka || !okb || ga == gb
}

// TotalMessages returns the number of messages the network has carried.
func (n *Network) TotalMessages() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.totalMsgs
}

// TotalDropped returns the number of messages dropped at dead endpoints.
func (n *Network) TotalDropped() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.totalDrop
}

// NewEndpoint attaches a fresh endpoint. The empty name auto-assigns
// "simN".
func (n *Network) NewEndpoint(name string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if name == "" {
		name = fmt.Sprintf("sim%d", n.nextAddr)
	}
	n.nextAddr++
	addr := network.Addr(name)
	if _, exists := n.endpoints[addr]; exists {
		panic(fmt.Sprintf("simwire: duplicate endpoint %q", name))
	}
	ep := &Endpoint{
		net:      n,
		addr:     addr,
		handlers: make(map[string]network.HandlerFunc),
		alive:    true,
	}
	n.endpoints[addr] = ep
	return ep
}

// Remove detaches a dead endpoint so a restarted peer can re-attach
// under the same name — same address, hence same ring position. Only
// dead endpoints can be removed (a live one still owns its address);
// unknown addresses are ignored.
func (n *Network) Remove(addr network.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := n.endpoints[addr]
	if ep == nil {
		return
	}
	if ep.isAlive() {
		panic(fmt.Sprintf("simwire: removing live endpoint %q", addr))
	}
	delete(n.endpoints, addr)
}

// Kill crashes the endpoint with the given address: it stops receiving
// and its in-flight replies are dropped. Unknown addresses are ignored.
func (n *Network) Kill(addr network.Addr) {
	n.mu.Lock()
	ep := n.endpoints[addr]
	n.mu.Unlock()
	if ep != nil {
		ep.setAlive(false)
	}
}

// Alive reports whether the endpoint exists and has not been killed or
// closed.
func (n *Network) Alive(addr network.Addr) bool {
	n.mu.Lock()
	ep := n.endpoints[addr]
	n.mu.Unlock()
	return ep != nil && ep.isAlive()
}

// Endpoint is one simulated peer's network attachment.
type Endpoint struct {
	net  *Network
	addr network.Addr

	mu       sync.Mutex
	handlers map[string]network.HandlerFunc
	alive    bool
}

var _ network.Endpoint = (*Endpoint)(nil)

// Addr implements network.Endpoint.
func (ep *Endpoint) Addr() network.Addr { return ep.addr }

// Handle implements network.Endpoint.
func (ep *Endpoint) Handle(method string, h network.HandlerFunc) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handlers[method] = h
}

// Close implements network.Endpoint; a closed endpoint behaves like a
// killed one.
func (ep *Endpoint) Close() error {
	ep.setAlive(false)
	return nil
}

func (ep *Endpoint) setAlive(v bool) {
	ep.mu.Lock()
	ep.alive = v
	ep.mu.Unlock()
}

func (ep *Endpoint) isAlive() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.alive
}

func (ep *Endpoint) handler(method string) network.HandlerFunc {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.alive {
		return nil
	}
	return ep.handlers[method]
}

// Invoke implements network.Endpoint. It must run inside a kernel
// process. A dead or missing destination produces core.ErrTimeout after
// the call's timeout (crash failures are indistinguishable from silence,
// as in a real network).
//
// Context mapping: a context that is already done fails fast with the
// matching core error, and a live deadline's remaining wall-clock budget
// is mapped onto a virtual-time timeout — the simulation's analogue of
// honoring the deadline. Deadline-free calls keep the configured
// timeout, so deterministic experiments stay bit-reproducible.
func (ep *Endpoint) Invoke(ctx context.Context, to network.Addr, method string, req network.Message, opt network.Call) (network.Message, error) {
	if !ep.isAlive() {
		return nil, fmt.Errorf("simwire: %s: %w", ep.addr, core.ErrStopped)
	}
	if err := network.CtxError(ctx); err != nil {
		return nil, fmt.Errorf("simwire: %s->%s %s: %w", ep.addr, to, method, err)
	}
	n := ep.net
	timeout := network.Patience(ctx, opt.Timeout, n.cfg.DefaultTimeout)
	meter := network.MeterFrom(ctx)
	reqSize := network.SizeOf(req)
	meter.Count(reqSize)
	n.countMsg()

	reply := n.k.NewFuture()
	reqDelay, reqLost := n.conditions().Plan(ep.addr, to, reqSize)
	if reqLost || !n.Reachable(ep.addr, to) {
		// Lost in flight or blocked by a partition: silence, the caller
		// times out — indistinguishable from a crashed destination.
		n.countDrop()
	} else {
		del := deliveryPool.Get().(*delivery)
		del.n, del.from, del.to, del.method = n, ep.addr, to, method
		del.req, del.reply = req, reply
		n.k.AfterProc(reqDelay, deliverRequest, del)
	}

	v, err := reply.Await(timeout)
	if err != nil {
		// The virtual-time wait may have been cut short by the caller's
		// deadline; report it in context terms when so.
		if cerr := network.CtxError(ctx); cerr != nil {
			err = cerr
		}
		return nil, fmt.Errorf("simwire: %s->%s %s: %w", ep.addr, to, method, err)
	}
	del := v.(*delivery)
	meter.Count(del.size)
	body, code, msg := del.body, del.code, del.msg
	del.release()
	if code != "" {
		return nil, network.DecodeError(code, msg)
	}
	return body, nil
}

// delivery carries one message (and later its response) through the
// simulated wire. Deliveries are pooled: the success path releases one
// back after the caller copied the response out, and every drop path
// releases on the spot. The one leak is a response that arrives after
// the caller timed out — the resolved-but-unread future keeps the
// delivery alive, so it must go to the garbage collector, never back to
// the pool.
type delivery struct {
	n      *Network
	from   network.Addr
	to     network.Addr
	method string
	req    network.Message
	reply  *simnet.Future
	// Response leg, filled by deliverRequest.
	body network.Message
	code string
	msg  string
	size int
}

var deliveryPool = sync.Pool{New: func() any { return new(delivery) }}

// release zeroes the delivery and returns it to the pool.
func (d *delivery) release() {
	*d = delivery{}
	deliveryPool.Put(d)
}

// deliverRequest runs as a kernel process when the request arrives at
// its destination: it serves the handler and schedules the response leg.
func deliverRequest(x any) {
	del := x.(*delivery)
	n := del.n
	// A partition that started while the message was in flight still
	// blocks delivery: no cross-partition message is ever handed to a
	// handler.
	if !n.Reachable(del.from, del.to) {
		n.countDrop()
		del.release()
		return
	}
	n.mu.Lock()
	dst := n.endpoints[del.to]
	n.mu.Unlock()
	if dst == nil || !dst.isAlive() {
		n.countDrop()
		del.release()
		return // silence; the caller times out
	}
	h := dst.handler(del.method)
	if h == nil {
		n.countDrop()
		del.release()
		return
	}
	res, err := h(del.from, del.req)
	// The reply travels back only if the destination survived serving
	// the request and the partition still permits it.
	if !dst.isAlive() {
		n.countDrop()
		del.release()
		return
	}
	code, msg := network.EncodeError(err)
	respSize := network.DefaultWireSize
	if err == nil {
		respSize = network.SizeOf(res)
	}
	n.countMsg()
	respDelay, respLost := n.conditions().Plan(del.to, del.from, respSize)
	if respLost || !n.Reachable(del.to, del.from) {
		n.countDrop()
		del.release()
		return
	}
	del.body, del.code, del.msg, del.size = res, code, msg, respSize
	// The response is a pure event: resolving a future never blocks, so
	// it needs no process of its own.
	n.k.AfterCall(respDelay, deliverResponse, del)
}

// deliverResponse runs inline on the kernel loop when the response
// arrives back at the caller.
func deliverResponse(x any) {
	del := x.(*delivery)
	if !del.n.Reachable(del.to, del.from) {
		del.n.countDrop()
		del.release()
		return
	}
	del.reply.Resolve(del)
}

func (n *Network) countMsg() {
	n.mu.Lock()
	n.totalMsgs++
	n.mu.Unlock()
}

func (n *Network) countDrop() {
	n.mu.Lock()
	n.totalDrop++
	n.mu.Unlock()
}

// Env adapts a kernel to network.Env so protocol code can run under
// simulation.
func Env(k *simnet.Kernel) network.Env { return simEnv{k} }

type simEnv struct{ k *simnet.Kernel }

func (e simEnv) Now() time.Duration          { return e.k.Now() }
func (e simEnv) Sleep(d time.Duration) error { return e.k.Sleep(d) }
func (e simEnv) Go(fn func())                { e.k.Go(fn) }

// Join implements network.Env: one future, resolved by the last
// finisher and awaited by the caller. The kernel runs one process at a
// time, so the countdown needs no lock.
func (e simEnv) Join(n int, run func(i int)) error {
	if n == 0 {
		return nil
	}
	joined := e.k.NewFuture()
	left := n
	for i := 0; i < n; i++ {
		e.k.Go(func() {
			run(i)
			if left--; left == 0 {
				joined.Resolve(nil)
			}
		})
	}
	_, err := joined.Await(0)
	return err
}

func (e simEnv) After(d time.Duration, fn func()) network.Canceler {
	return e.k.After(d, fn)
}
func (e simEnv) Rand(label string) *rand.Rand { return e.k.NewRand(label) }
