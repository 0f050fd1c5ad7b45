package dht

import (
	"context"
	"time"

	"repro/internal/core"
)

// Ops is the paper's two client operations (Figure 2): insert(k, data),
// and retrieve(k) under the acceptance predicate pol (the zero policy is
// the paper's provably-current retrieve). It is the one op surface the
// workload engine drives and the gateway pools: a peer stack, the
// gateway itself and the public client adapter all implement it.
type Ops interface {
	Insert(ctx context.Context, k core.Key, data []byte) (OpResult, error)
	Retrieve(ctx context.Context, k core.Key, pol ReadPolicy) (OpResult, error)
}

// OpResult reports one insert or retrieve operation with the metrics the
// evaluation tracks: response time, communication cost (messages/bytes)
// and, for retrieves, how many replicas were probed before a current one
// was found — the paper's nums (§3.3).
type OpResult struct {
	// Data is the returned replica (retrieves only).
	Data []byte
	// TS is the timestamp/version attached to the operation's replica.
	TS core.Timestamp
	// Currency is the freshness verdict for the returned replica
	// (retrieves only): Proven when it carried KTS's last_ts,
	// WithinBound when it met a cached floor within the requested
	// staleness bound, SessionFloor when it met a session's per-key
	// floor, Unknown otherwise. BRK can never prove currency, so its
	// retrieves always report Unknown.
	Currency Currency
	// Floor is the timestamp evidence Currency was judged against: the
	// (possibly cached) last_ts for Proven/WithinBound, the session
	// floor for SessionFloor, zero for Unknown.
	Floor core.Timestamp
	// FloorAge is how old the Floor evidence was when the acceptance
	// decision used it: zero for a fresh KTS answer or a session floor,
	// the cache entry's age for WithinBound.
	FloorAge time.Duration
	// Probed counts geth calls issued (the paper's nums for UMS; always
	// |Hr| for BRK).
	Probed int
	// Retrieved counts replicas actually obtained (available peers).
	Retrieved int
	// Stored counts replicas written (inserts only).
	Stored int
	// Msgs and Bytes are the operation's total communication cost,
	// including work the responsible of timestamping performed on the
	// caller's behalf.
	Msgs  int
	Bytes int
	// Elapsed is the operation's response time.
	Elapsed time.Duration
}

// Current reports whether the returned replica was provably current —
// it carried (at least) the last timestamp KTS generated for the key.
// Kept as the compatibility accessor for the old `Current bool` field;
// Currency is the source of truth.
func (r OpResult) Current() bool { return r.Currency == CurrencyProven }
