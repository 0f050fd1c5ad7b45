// Package dht holds what the three DHT substrates (chord, can, onehop)
// share and what the services (kts, ums, brk) consume: node references,
// the namespaced replica store each peer hosts, the put/get wire
// protocol, the Ring interface that abstracts "find the peer responsible
// for a ring position", Member, the membership kit every substrate node
// embeds (liveness, service handover, RPC plumbing), so a substrate is
// its routing geometry and nothing else, and Every, the one periodic
// loop every peer task runs on.
//
// In the paper's terms (§2.1): Ring.Lookup implements the DHT's lookup
// service locating rsp(k, h); the Client's PutH and GetH are the puth and
// geth operations; replica placement applies each h ∈ Hr to the key.
package dht

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/store"
)

// NodeRef identifies a peer: its ring position and transport address.
type NodeRef struct {
	ID   core.ID
	Addr network.Addr
}

// IsZero reports an unset reference.
func (r NodeRef) IsZero() bool { return r.Addr == "" }

func (r NodeRef) String() string {
	return fmt.Sprintf("%s@%s", r.ID, r.Addr)
}

// Handover lets a service participate in responsibility transfers: when
// a peer cedes part of its key range (a joiner takes over, or the peer
// leaves gracefully), Collect must gather and remove the service state
// for the ceded positions; Accept installs state on the new responsible.
// KTS registers one of these to move its counters — the paper's direct
// initialization algorithm (§4.2.1).
type Handover interface {
	// Name routes the payload to the same service on the receiving peer.
	Name() string
	// Collect gathers and removes state for every ring position
	// satisfying ceded. It returns nil when there is nothing to move.
	Collect(ceded func(core.ID) bool) network.Message
	// Accept installs a payload produced by Collect on another peer.
	Accept(msg network.Message)
}

// HandoverRegistrar is implemented by substrates that support service
// state handover: every one, through Member.
type HandoverRegistrar interface {
	RegisterHandover(Handover)
}

// Ring is the lookup service a DHT substrate provides to the services
// layered on it. Implementations: chord.Node, can.Node and onehop.Node.
type Ring interface {
	// Self returns this peer's reference.
	Self() NodeRef
	// Lookup finds the peer currently responsible for ring position id.
	// The context bounds the walk (deadline and cancellation) and
	// carries the meter routing messages are charged to. hops reports
	// routing steps.
	Lookup(ctx context.Context, id core.ID) (ref NodeRef, hops int, err error)
	// Guess names the peer responsible for id from this peer's own
	// state, at zero messages. It answers only from positive knowledge
	// — an arc whose both ends the peer knows, from live routing state
	// (GuessRouting) or as last proved by one of its own authoritative
	// lookups (GuessLearned) — and declines (NoGuess) otherwise; in
	// particular it never answers from the "no known predecessor, so I
	// own everything" default that OwnsID falls back to. A guess may be
	// stale: the guessed peer's own responsibility check on the
	// operation is what confirms it (see Router).
	Guess(id core.ID) (ref NodeRef, src GuessSource)
	// Endpoint returns this peer's transport attachment, on which
	// services register their own RPC methods.
	Endpoint() network.Endpoint
	// Env returns the execution environment (virtual or real time).
	Env() network.Env
	// OwnsID reports whether this peer is currently responsible for id.
	OwnsID(id core.ID) bool
	// HeldSince returns the Env time since which the set of positions
	// OwnsID accepts has not changed; any change restarts it, whether the
	// arc grew or shrank. A peer whose ownership rests on a default — no
	// known predecessor, a membership table of one, a space with no
	// neighbor — holds nothing steady and reports Env().Now().
	HeldSince() time.Duration
	// Alive reports whether the peer is still part of the overlay.
	Alive() bool
	// Obs returns the registry this peer's metrics land in; nil when the
	// peer exports none (every obs.Registry method accepts nil).
	Obs() *obs.Registry
}

// GuessForgetter is a Ring whose guesses can rest on remembered arcs
// (chord's learned arcs). A ring that guesses from live routing state
// alone lacks it: its own maintenance repairs that state.
type GuessForgetter interface {
	// GuessMissed reports that ref, named by Guess, refused the
	// operation or could not be reached; the ring drops what it
	// remembers about ref.
	GuessMissed(ref NodeRef)
}

// GuessSource says what a Guess rests on; it is also the "source" label
// of dcdht_dht_guess_total.
type GuessSource string

const (
	// NoGuess: the ring names nobody and the authoritative Lookup runs.
	NoGuess GuessSource = ""
	// GuessRouting: the substrate's live routing state (own arc,
	// successor list, membership table, neighbor zones).
	GuessRouting GuessSource = "routing"
	// GuessLearned: an arc one of this peer's own lookups proved and
	// nothing has contradicted since (chord only).
	GuessLearned GuessSource = "learned"
)

// RingNode is the full lifecycle surface a DHT substrate exposes to the
// deployment layer: the lookup service plus membership operations. All
// three substrates (chord.Node, can.Node, onehop.Node) implement it, so
// harnesses and the public facade can swap rings without caring which
// overlay routes underneath.
type RingNode interface {
	Ring
	HandoverRegistrar
	// CreateRing bootstraps a new overlay with this node as its only
	// member.
	CreateRing()
	// Join inserts this node into the overlay reachable at bootstrap,
	// taking over its share of the key space.
	Join(bootstrap network.Addr) error
	// Leave departs gracefully, ceding state to the remaining members.
	Leave() error
	// Crash kills the node without ceremony: no handover, no goodbyes.
	Crash()
	// Start launches the substrate's background maintenance.
	Start()
	// Nudge points the node at a live peer so a partitioned or stale
	// overlay can re-merge — the post-heal rendezvous.
	Nudge(bootstrap network.Addr) error
	// Store returns the replica store this peer hosts.
	Store() *LocalStore
}

// PutMode selects the overwrite discipline of a store operation.
type PutMode int

const (
	// PutOverwrite replaces whatever is stored.
	PutOverwrite PutMode = iota
	// PutIfNewer stores only if the incoming timestamp is strictly
	// greater than the stored one — the rule UMS peers apply (§3.2) so
	// that of concurrent inserts only the latest timestamp survives.
	PutIfNewer
	// PutIfNewerOrEqual stores if the incoming timestamp is greater than
	// or equal to the stored one. BRK uses it: version ties overwrite
	// arbitrarily, which is exactly the baseline's documented flaw.
	PutIfNewerOrEqual
)

// PutReq asks a peer to store a replica under (RingID, Qual).
type PutReq struct {
	RingID core.ID
	Qual   string
	Val    core.Value
	Mode   PutMode
}

// WireSize charges the payload against the simulated bandwidth.
func (r PutReq) WireSize() int { return network.DefaultWireSize + len(r.Qual) + len(r.Val.Data) }

// PutResp acknowledges a store.
type PutResp struct {
	// Stored is false when PutIfNewer rejected a stale write.
	Stored bool
}

// GetReq fetches the replica stored under (RingID, Qual).
type GetReq struct {
	RingID core.ID
	Qual   string
}

// GetResp returns the replica.
type GetResp struct {
	Val core.Value
}

// WireSize charges the payload against the simulated bandwidth.
func (r GetResp) WireSize() int { return network.DefaultWireSize + len(r.Val.Data) }

// PutBatchReq asks a peer to store several replicas in one message: the
// replica writes of one put whose positions the issuer found to share
// this owner. A batch is its items sent one by one: each passes the
// owns-check and Mode on its own and gets its own outcome.
type PutBatchReq struct {
	Items []store.Item
	Mode  PutMode
}

// WireSize charges each item as its own PutReq would be charged, under
// one header.
func (r PutBatchReq) WireSize() int {
	n := network.DefaultWireSize
	for _, it := range r.Items {
		n += len(it.Qual) + len(it.Val.Data)
	}
	return n
}

// PutBatchResp carries per-item outcomes, parallel to the request's
// Items: Code[i] is empty when item i was served (Stored[i] then says
// whether Mode kept it) or the network error code of its refusal.
type PutBatchResp struct {
	Stored []bool
	Code   []string
	Msg    []string
}

// WireSize charges the response proportionally to its items.
func (r PutBatchResp) WireSize() int {
	n := network.DefaultWireSize + len(r.Stored)
	for i := range r.Code {
		n += len(r.Code[i])
	}
	for i := range r.Msg {
		n += len(r.Msg[i])
	}
	return n
}

func init() {
	network.RegisterMessage(PutReq{}, PutResp{}, GetReq{}, GetResp{}, PutBatchReq{}, PutBatchResp{}, NodeRef{})
}

// Qualifier builds the storage qualifier for key k replicated under hash
// function hname in namespace ns ("ums", "brk", ...). Namespacing keeps
// UMS and BRK replicas of the same key apart, and hname keeps replicas
// apart when one peer is responsible for a key under several functions.
func Qualifier(ns string, k core.Key, hname string) string {
	return ns + "|" + string(k) + "|" + hname
}

// ParseQualifier inverts Qualifier. Namespaces and hash-function names
// never contain '|', so the first and last separators delimit the key
// even when the key itself contains one. The replica-maintenance
// subsystem uses this to recover the hosted keys from a LocalStore.
func ParseQualifier(q string) (ns string, k core.Key, hname string, ok bool) {
	first := strings.Index(q, "|")
	last := strings.LastIndex(q, "|")
	if first < 0 || last <= first {
		return "", "", "", false
	}
	return q[:first], core.Key(q[first+1 : last]), q[last+1:], true
}

// Methods registered by RegisterStore.
const (
	MethodPut      = "dht.Put"
	MethodGet      = "dht.Get"
	MethodPutBatch = "dht.PutBatch"
)
