// Package core holds the domain types shared by every layer of the
// reproduction: keys, ring identifiers, the 128-bit logical timestamps
// generated by KTS, stamped values as stored in the DHT, and the common
// error taxonomy.
//
// The package is deliberately free of protocol logic so that the DHT
// substrates (chord, can), the services (kts, ums, brk) and the harness
// (exp) can all depend on it without cycles.
package core

import (
	"errors"
	"fmt"
)

// Key is an application-level key as issued by users of the system
// ("agenda:room-12", "auction:lot-7", ...). Keys are independent of the
// data values they name: updating a value never changes its key (§5.1 of
// the paper).
type Key string

// ID is a position on the 64-bit ring used by the DHT substrates. Hash
// functions map a Key to an ID; a peer is responsible for an ID if the ID
// falls in the peer's range (Chord: the arc ending at the peer's own ID;
// CAN: the peer's zone, derived from the ID).
type ID uint64

// String renders the ID in fixed-width hexadecimal, which keeps log lines
// and test failures alignable.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Between reports whether id lies in the clockwise-open interval (a, b]
// on the ring. It handles wrap-around: Between(5, 3, 1) is true on a ring
// because walking clockwise from 5 reaches 3 after wrapping past 0.
// When a == b the interval covers the whole ring (a single-node system is
// responsible for everything).
func (id ID) Between(a, b ID) bool {
	if a == b {
		return true
	}
	if a < b {
		return a < id && id <= b
	}
	return a < id || id <= b
}

// InOpenInterval reports whether id lies strictly between a and b
// clockwise, i.e. in (a, b) on the ring. When a == b the interval is the
// whole ring minus the endpoint.
func (id ID) InOpenInterval(a, b ID) bool {
	if a == b {
		return id != a
	}
	if a < b {
		return a < id && id < b
	}
	return a < id || id < b
}

// Value is a stamped replica as stored in the DHT: the user data plus the
// KTS timestamp it was written with ("newData = {data, timestamp}" in
// §3.1). Replicas compare by timestamp only.
type Value struct {
	Data []byte
	TS   Timestamp
}

// Clone returns a deep copy of the value so that stored replicas can
// never alias caller-owned buffers.
func (v Value) Clone() Value {
	if v.Data == nil {
		return Value{TS: v.TS}
	}
	d := make([]byte, len(v.Data))
	copy(d, v.Data)
	return Value{Data: d, TS: v.TS}
}

// Common error taxonomy. Transport and protocol layers wrap these so
// callers can classify failures with errors.Is.
var (
	// ErrNotFound reports that a peer holds no replica for the probed
	// key. UMS treats it as "replica unavailable" and moves to the next
	// replication hash function.
	ErrNotFound = errors.New("dcdht: not found")

	// ErrUnreachable reports that a peer could not be contacted (crashed,
	// departed, or network failure).
	ErrUnreachable = errors.New("dcdht: peer unreachable")

	// ErrTimeout reports that an operation exceeded its deadline.
	ErrTimeout = errors.New("dcdht: timeout")

	// ErrStopped reports that the node or simulation has been shut down.
	ErrStopped = errors.New("dcdht: stopped")

	// ErrNoCurrentReplica reports that retrieve found replicas but none
	// carried the last generated timestamp; the most recent available
	// replica was returned instead (§3.2).
	ErrNoCurrentReplica = errors.New("dcdht: no current replica available")

	// ErrNotResponsible reports that the contacted peer is not (or no
	// longer) responsible for the requested ring position; the caller
	// should re-run the lookup. This happens when responsibility moved
	// between the lookup and the operation (§2.1's mapping function is
	// time-dependent).
	ErrNotResponsible = errors.New("dcdht: peer not responsible")

	// ErrStorage reports that a peer's store failed or refused a write
	// (store.ErrStore is this error). Like the rest of the taxonomy it
	// survives the wire, so a caller can tell a responsible whose store
	// failed from one that refused the request.
	ErrStorage = errors.New("store: storage error")
)
