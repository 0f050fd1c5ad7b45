package dht

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/store"
)

// Client performs puth/geth operations (§2.2) from one peer: a Router
// delivers the store protocol to rsp(k, h) — the owner named from local
// routing state first, the ring's lookup service when that misses. One
// retry is allowed when the responsible moved between lookup and
// operation.
//
// Every operation takes a context: its deadline bounds the whole
// resolve-and-invoke sequence, its cancellation stops retries, and the
// meter it carries (network.WithMeter) is charged for every message.
type Client struct {
	ring  Ring
	ns    string
	route *Router
}

// localServer is a Ring whose peer hosts a replica store: Member, so
// every substrate node.
type localServer interface {
	// StoreHandlers returns the put/get handlers the peer serves on its
	// endpoint (RegisterStore).
	StoreHandlers() map[string]network.HandlerFunc
}

// NewClient builds a client for the given namespace ("ums", "brk"). On
// a ring whose peer hosts a store, an operation on a position the peer
// owns is served in-process at no message (Router.Send).
func NewClient(ring Ring, namespace string) *Client {
	cfg := RouteConfig{Retries: 1, Backoff: 100 * time.Millisecond}
	if l, ok := ring.(localServer); ok {
		cfg.Local = l.StoreHandlers()
	}
	return &Client{ring: ring, ns: namespace, route: NewRouter(ring, cfg)}
}

// Router exposes the client's router (its guess statistics, in tests).
func (c *Client) Router() *Router { return c.route }

// Ring exposes the underlying ring (used by services for lookups).
func (c *Client) Ring() Ring { return c.ring }

// Namespace returns the client's storage namespace.
func (c *Client) Namespace() string { return c.ns }

// PutH stores val at rsp(k, h) — the paper's puth(k, data).
func (c *Client) PutH(ctx context.Context, k core.Key, h hashing.Func, val core.Value, mode PutMode) error {
	_, err := c.PutHStored(ctx, k, h, val, mode)
	return err
}

// PutHStored is PutH, additionally reporting whether the responsible
// actually kept the value — false when PutIfNewer (or PutIfNewerOrEqual)
// rejected a write that would travel backwards in time. The replica
// maintenance subsystem uses the report to count real heals instead of
// every push.
func (c *Client) PutHStored(ctx context.Context, k core.Key, h hashing.Func, val core.Value, mode PutMode) (bool, error) {
	return c.putH(ctx, k, h, val, mode, false, NodeRef{})
}

// PutHResolved is PutH for a position whose owner was sought ahead of
// the write: the ring declined to guess it (Router.Declines), and owner
// is what the Lookup run then named — zero when it failed. See
// Router.CallResolved.
func (c *Client) PutHResolved(ctx context.Context, k core.Key, h hashing.Func, owner NodeRef, val core.Value, mode PutMode) error {
	_, err := c.putH(ctx, k, h, val, mode, true, owner)
	return err
}

func (c *Client) putH(ctx context.Context, k core.Key, h hashing.Func, val core.Value, mode PutMode, resolved bool, owner NodeRef) (bool, error) {
	rid := h.ID(k)
	req := PutReq{RingID: rid, Qual: Qualifier(c.ns, k, h.Name()), Val: val, Mode: mode}
	var resp PutResp
	var err error
	if resolved {
		resp, err = network.Reply[PutResp](c.route.CallResolved(ctx, rid, owner, MethodPut, req))
	} else {
		resp, err = network.Reply[PutResp](c.route.Call(ctx, rid, MethodPut, req))
	}
	if err != nil {
		return false, fmt.Errorf("dht: puth %q via %s: %w", k, h.Name(), err)
	}
	return resp.Stored, nil
}

// PutHBatch stores val at rsp(k, h) for every h in hs with one request
// to ref, the peer named the owner of all of them before the write: by
// a guess (srcs[j] is what the guess for hs[j] rested on) or by a
// lookup run ahead of it (srcs[j] is NoGuess). Every position keeps the
// outcome it would have had alone: one that ref refuses as not its own,
// or that cannot reach ref, re-resolves alone through the router, as
// PutH goes on after a missed guess and PutHResolved after its first
// attempt. errs is parallel to hs.
func (c *Client) PutHBatch(ctx context.Context, k core.Key, ref NodeRef, hs []hashing.Func, srcs []GuessSource, val core.Value, mode PutMode) (errs []error) {
	req := PutBatchReq{Items: make([]store.Item, len(hs)), Mode: mode}
	for j, h := range hs {
		req.Items[j] = store.Item{RingID: h.ID(k), Qual: Qualifier(c.ns, k, h.Name()), Val: val}
	}
	_, errs = c.putBatch(ctx, ref, req)
	for j, it := range req.Items {
		err := errs[j]
		if c.route.settle(ref, srcs[j], err) {
			single := PutReq{RingID: it.RingID, Qual: it.Qual, Val: val, Mode: mode}
			_, err = network.Reply[PutResp](c.route.reroute(ctx, it.RingID, srcs[j], err, MethodPut, single))
		}
		if err != nil {
			err = fmt.Errorf("dht: puth %q via %s: %w", k, hs[j].Name(), err)
		}
		errs[j] = err
	}
	return errs
}

// putBatch sends req to ref and returns each item's outcome. A reply
// that does not answer every item exactly once is the whole batch's
// failure, as from a peer that never answered.
func (c *Client) putBatch(ctx context.Context, ref NodeRef, req PutBatchReq) (stored []bool, errs []error) {
	n := len(req.Items)
	stored, errs = make([]bool, n), make([]error, n)
	r, err := network.Reply[PutBatchResp](c.route.Send(ctx, ref, MethodPutBatch, req))
	if err == nil && (len(r.Stored) != n || len(r.Code) != n || len(r.Msg) != n) {
		err = fmt.Errorf("dht: put batch of %d answered with %d: %w", n, len(r.Stored), core.ErrUnreachable)
	}
	for j := range errs {
		if err != nil {
			errs[j] = err
		} else if errs[j] = network.DecodeError(r.Code[j], r.Msg[j]); errs[j] == nil {
			stored[j] = r.Stored[j]
		}
	}
	return stored, errs
}

// GetH retrieves the replica of k stored at rsp(k, h) — the paper's
// geth(k).
func (c *Client) GetH(ctx context.Context, k core.Key, h hashing.Func) (core.Value, error) {
	rid := h.ID(k)
	req := GetReq{RingID: rid, Qual: Qualifier(c.ns, k, h.Name())}
	resp, err := network.Reply[GetResp](c.route.Call(ctx, rid, MethodGet, req))
	if err != nil {
		return core.Value{}, fmt.Errorf("dht: geth %q via %s: %w", k, h.Name(), err)
	}
	return resp.Val, nil
}
