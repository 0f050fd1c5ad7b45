package dht

import (
	"time"

	"repro/internal/core"
)

// Level is the consistency level a retrieve runs at — how current the
// returned replica must provably be. The paper's UMS always proves
// currency against KTS's last_ts (LevelCurrent here); the other levels
// trade currency for retrieval cost along the axis the paper's
// response-time-vs-currency evaluation measures.
type Level int

// The consistency levels, ordered from strongest to weakest guarantee.
const (
	// LevelCurrent is the paper's provably-current retrieve: ask KTS
	// for last_ts, probe replica positions until one carries it. The
	// default (and the zero value).
	LevelCurrent Level = iota
	// LevelBounded accepts a replica that is at most a given duration
	// stale: when the issuing peer holds a cached last_ts younger than
	// the bound, the retrieve skips the KTS round trip entirely and
	// accepts the first replica at or past the cached floor.
	LevelBounded
	// LevelEventual accepts the first reachable replica with no KTS
	// round trip at all — the cheapest read, no currency claim.
	LevelEventual
)

// String returns "current", "bounded" or "eventual".
func (l Level) String() string {
	switch l {
	case LevelBounded:
		return "bounded"
	case LevelEventual:
		return "eventual"
	default:
		return "current"
	}
}

// Currency is the verdict attached to a retrieve's result: what the
// operation can actually claim about the returned replica's freshness,
// together with the OpResult.Floor / OpResult.FloorAge evidence. It
// replaces the old lone `Current bool`; OpResult.Current() derives from
// it.
type Currency int

// The currency verdicts, ordered from weakest to strongest claim.
const (
	// CurrencyUnknown makes no freshness claim: an eventual read, or a
	// retrieve that fell back to the most recent available replica.
	CurrencyUnknown Currency = iota
	// CurrencySessionFloor: the replica is at least as fresh as the
	// session's per-key floor (read-your-writes / monotonic reads), but
	// was not checked against KTS.
	CurrencySessionFloor
	// CurrencyWithinBound: the replica is at or past a cached last_ts
	// whose age was within the requested staleness bound.
	CurrencyWithinBound
	// CurrencyProven: the replica carries (at least) the last timestamp
	// KTS generated for the key — the paper's provable currency.
	CurrencyProven
)

// String returns "unknown", "session-floor", "within-bound" or "proven".
func (c Currency) String() string {
	switch c {
	case CurrencySessionFloor:
		return "session-floor"
	case CurrencyWithinBound:
		return "within-bound"
	case CurrencyProven:
		return "proven"
	default:
		return "unknown"
	}
}

// ReadPolicy is the acceptance predicate a UMS retrieve runs under: the
// requested consistency level plus the session evidence that can
// cheapen it. The zero value is the paper's provably-current retrieve.
type ReadPolicy struct {
	// Level selects the consistency level.
	Level Level
	// Bound is LevelBounded's staleness allowance: a cached last_ts no
	// older than Bound may stand in for the authoritative one.
	Bound time.Duration
	// Floor is the session's per-key timestamp floor: a successful
	// retrieve must never return a replica older than it, at any level.
	// Zero means no session constraint.
	Floor core.Timestamp
	// FloorFirst marks a session's default read: satisfy the retrieve
	// from the first replica meeting Floor — skipping the KTS round
	// trip — before falling back to the level's own acceptance rule.
	// Only meaningful with a non-zero Floor.
	FloorFirst bool
}
