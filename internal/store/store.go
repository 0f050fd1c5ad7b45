// Package store is the durable storage subsystem: the pluggable
// persistence unit behind a peer's replica store and KTS counters.
//
// The paper's recovery strategy (§4.2.2: a restarted responsible ships
// its counters back so timestamp monotonicity survives failures) only
// means something when a peer can come back with state. A Store persists
// exactly the two things that strategy needs, in one recoverable unit:
//
//   - replica items — the (ring position, qualifier, stamped value)
//     triples the peer hosts (dht.LocalStore is a thin concurrency and
//     handover layer over this interface);
//   - KTS counters — the per-key timestamps of the Valid Counters Set.
//     kts.Service keeps its set nowhere else, so a restart on a durable
//     store resumes the counters instead of re-deriving them from
//     replicas.
//
// Implementations:
//
//   - Mem: map-backed, volatile — the pre-durability behaviour. A crash
//     loses everything, which is the paper's fail-stop departure model.
//   - WAL: disk-backed — an append-only write-ahead log with CRC-framed
//     records, periodic snapshot + log truncation, crash-safe replay on
//     open and a configurable fsync policy (see wal.go).
//   - Depot/DepotStore: the simulation's durable media — per-peer state
//     retained deterministically in memory across crashes, so scenarios
//     can model restart-with-state without touching a real disk.
package store

import (
	"errors"

	"repro/internal/core"
)

// Typed errors. Every failure the subsystem reports wraps ErrStore, so
// callers can classify any storage problem with one errors.Is; log
// corruption additionally wraps ErrCorruptLog.
var (
	// ErrStore is the class of every storage-subsystem failure: an
	// unusable data directory, an I/O error, a corrupt file.
	ErrStore = errors.New("store: storage error")

	// ErrCorruptLog reports unrecoverable corruption in the middle of a
	// write-ahead log or snapshot. A torn final record — the expected
	// shape of a mid-append crash — is tolerated and truncated, never
	// reported as this error; anything before the tail must be intact.
	ErrCorruptLog = errors.New("store: corrupt log")
)

// Item is one stored replica: the (ring position, qualifier, stamped
// value) triple a peer hosts.
type Item struct {
	RingID core.ID
	Qual   string
	Val    core.Value
}

// Counter is one persisted KTS counter: the last timestamp this peer
// generated for a key it is (or was) responsible for.
type Counter struct {
	Key core.Key
	TS  core.Timestamp
}

// Store persists one peer's recoverable state. Implementations are safe
// for concurrent use: the replica path (dht.LocalStore) and the counter
// path (kts.Service) hold separate locks and share one Store.
//
// Mutations on a durable implementation are journaled; how soon they hit
// stable storage is the fsync policy's business. Sync forces everything
// buffered down; Close syncs and releases. Crash models abrupt peer
// death — volatile state is dropped and only what the policy already
// made stable survives — so tests and the simulation can exercise the
// recovery path honestly.
type Store interface {
	// PutItem records the replica stored under (it.RingID, it.Qual),
	// overwriting any previous value.
	PutItem(it Item) error
	// GetItem returns the replica stored under (rid, qual).
	GetItem(rid core.ID, qual string) (core.Value, bool)
	// DeleteItem removes the replica stored under (rid, qual). Deleting
	// an absent item is not an error.
	DeleteItem(rid core.ID, qual string) error
	// EachItem visits every stored item in unspecified order; fn
	// returning false stops the walk. The walk holds the store's lock:
	// do not call back into the store from fn.
	EachItem(fn func(Item) bool)
	// ItemCount returns the number of stored items.
	ItemCount() int

	// PutCounter records the KTS counter for k.
	PutCounter(k core.Key, ts core.Timestamp) error
	// GetCounter returns the KTS counter for k.
	GetCounter(k core.Key) (core.Timestamp, bool)
	// DeleteCounter removes the counter for k (responsibility ceded).
	DeleteCounter(k core.Key) error
	// Counters returns every persisted counter, in unspecified order.
	Counters() []Counter

	// Sync forces buffered records to stable storage.
	Sync() error
	// Crash models abrupt peer death: buffered (not yet stable) records
	// are dropped, resources are released, and the store handle becomes
	// inert. What survives is implementation-defined: nothing for Mem,
	// the synced prefix for WAL, everything for DepotStore.
	Crash()
	// Close flushes and releases the store.
	Close() error
}
