package dht

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
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

// NewClient builds a client for the given namespace ("ums", "brk").
func NewClient(ring Ring, namespace string) *Client {
	return &Client{ring: ring, ns: namespace,
		route: NewRouter(ring, RouteConfig{Retries: 1, Backoff: 100 * time.Millisecond})}
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
	resp, err := c.route.Call(ctx, rid, MethodPut, req)
	if err != nil {
		return false, fmt.Errorf("dht: puth %q via %s: %w", k, h.Name(), err)
	}
	return resp.(PutResp).Stored, nil
}

// GetH retrieves the replica of k stored at rsp(k, h) — the paper's
// geth(k).
func (c *Client) GetH(ctx context.Context, k core.Key, h hashing.Func) (core.Value, error) {
	rid := h.ID(k)
	req := GetReq{RingID: rid, Qual: Qualifier(c.ns, k, h.Name())}
	resp, err := c.route.Call(ctx, rid, MethodGet, req)
	if err != nil {
		return core.Value{}, fmt.Errorf("dht: geth %q via %s: %w", k, h.Name(), err)
	}
	return resp.(GetResp).Val, nil
}
