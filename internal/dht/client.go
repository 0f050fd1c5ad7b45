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
	rid := h.ID(k)
	req := PutReq{RingID: rid, Qual: Qualifier(c.ns, k, h.Name()), Val: val, Mode: mode}
	resp, err := network.Reply[PutResp](c.route.Call(ctx, rid, MethodPut, req))
	if err != nil {
		return false, fmt.Errorf("dht: puth %q via %s: %w", k, h.Name(), err)
	}
	return resp.Stored, nil
}

// PutHEach stores val at rsp(k, h) for every h in hs, targets[j]
// carrying what is known of hs[j]'s owner (its ID is hs[j].ID(k)): one
// write per owner through Router.CallEach — the plain Put for a lone
// position, one PutBatch for several — and a position its owner refuses
// re-resolves alone. A lone position with nothing known is PutH. errs
// is parallel to hs.
func (c *Client) PutHEach(ctx context.Context, k core.Key, hs []hashing.Func, targets []Target, val core.Value, mode PutMode) []error {
	if len(hs) == 1 && targets[0].Ref.IsZero() && !targets[0].Looked {
		return []error{c.PutH(ctx, k, hs[0], val, mode)}
	}
	errs := c.route.CallEach(ctx, targets, func(ref NodeRef, idx []int) []error {
		req := PutBatchReq{Items: make([]store.Item, len(idx)), Mode: mode}
		for j, i := range idx {
			req.Items[j] = store.Item{RingID: hs[i].ID(k), Qual: Qualifier(c.ns, k, hs[i].Name()), Val: val}
		}
		if it := req.Items[0]; len(idx) == 1 {
			_, err := network.Reply[PutResp](c.route.Send(ctx, ref, MethodPut, PutReq{RingID: it.RingID, Qual: it.Qual, Val: val, Mode: mode}))
			return []error{err}
		}
		_, errs := c.putBatch(ctx, ref, req)
		return errs
	})
	for j, err := range errs {
		if err != nil {
			errs[j] = fmt.Errorf("dht: puth %q via %s: %w", k, hs[j].Name(), err)
		}
	}
	return errs
}

// putBatch sends req to ref and returns each item's outcome. A reply
// that does not answer every item exactly once is the whole batch's
// failure, as from a peer that never answered.
func (c *Client) putBatch(ctx context.Context, ref NodeRef, req PutBatchReq) (stored []bool, errs []error) {
	n := len(req.Items)
	stored = make([]bool, n)
	r, err := network.Reply[PutBatchResp](c.route.Send(ctx, ref, MethodPutBatch, req))
	errs, _ = network.DecodeBatch(n, err, len(r.Stored), r.Code, r.Msg)
	for j, err := range errs {
		if err == nil {
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
