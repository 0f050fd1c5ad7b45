// Package store is the durable storage subsystem: the persistence unit
// behind a peer's replica store and KTS counters.
//
// The paper's recovery strategy (§4.2.2: a restarted responsible ships
// its counters back so timestamp monotonicity survives failures) only
// means something when a peer can come back with state. A Store persists
// exactly the two things that strategy needs, in one recoverable unit:
//
//   - replica items — the (ring position, qualifier, stamped value)
//     triples the peer hosts (dht.LocalStore is a thin concurrency and
//     handover layer over a Store);
//   - KTS counters — the per-key timestamps of the Valid Counters Set.
//     kts.Service keeps its set nowhere else, so a restart on a durable
//     store resumes the counters instead of re-deriving them from
//     replicas.
//
// There is one Store type and three ways to open it:
//
//   - NewMem: volatile. Nothing outlives the handle, which is the
//     paper's fail-stop departure model.
//   - OpenWAL: disk-backed. Every write is also appended to a
//     CRC-framed write-ahead log, with periodic snapshot + log
//     truncation, crash-safe replay on open and a configurable fsync
//     policy (see wal.go).
//   - Depot.Open: the simulation's durable media. A peer's state is
//     retained deterministically in memory across crashes, so scenarios
//     can model restart-with-state without touching a real disk.
//
// Every write is one record (Item, DeletedItem, Counter or
// DeletedCounter) applied by the one apply that log replay also uses.
// Every handle follows one crash rule: after Crash or Close it reads
// nothing and refuses writes with an error wrapping ErrStore; what a
// later open finds is whatever its media kept.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/network"
)

// Typed errors. Every failure the subsystem reports wraps ErrStore, so
// callers can classify any storage problem with one errors.Is; log
// corruption additionally wraps ErrCorruptLog.
var (
	// ErrStore is the class of every storage-subsystem failure: an
	// unusable data directory, an I/O error, a corrupt file, a write to
	// a dead handle. It is core.ErrStorage, so it keeps its class when
	// a remote peer's failure crosses the wire.
	ErrStore = core.ErrStorage

	// ErrCorruptLog reports unrecoverable corruption in the middle of a
	// write-ahead log or snapshot. A torn final record — the expected
	// shape of a mid-append crash — is tolerated and truncated, never
	// reported as this error; anything before the tail must be intact.
	ErrCorruptLog = errors.New("store: corrupt log")
)

// The four records. A write builds one and apply gives it its meaning;
// the write-ahead log and the snapshot file store them as they are, one
// internal/network codec message each.

// Item is one stored replica, and the record of a PutItem: the (ring
// position, qualifier, stamped value) triple a peer hosts.
type Item struct {
	RingID core.ID
	Qual   string
	Val    core.Value
}

// Counter is one persisted KTS counter, and the record of a PutCounter:
// the last timestamp this peer generated for a key it is (or was)
// responsible for.
type Counter struct {
	Key core.Key
	TS  core.Timestamp
}

// DeletedItem is the record of a DeleteItem.
type DeletedItem struct {
	RingID core.ID
	Qual   string
}

// DeletedCounter is the record of a DeleteCounter.
type DeletedCounter struct {
	Key core.Key
}

func init() {
	network.RegisterMessage(Item{}, Counter{}, DeletedItem{}, DeletedCounter{})
}

// state is what a store holds: a peer's replicas and counters under one
// lock. A depot slot is a state that outlives its handles.
type state struct {
	mu       sync.Mutex
	items    map[core.ID]map[string]core.Value
	counters map[core.Key]core.Timestamp
}

func newState() *state {
	return &state{
		items:    make(map[core.ID]map[string]core.Value),
		counters: make(map[core.Key]core.Timestamp),
	}
}

// apply is the one interpretation of a record: every live write and
// every replayed log or snapshot record goes through it. It reports
// whether rec is one of the four records; anything else can only come
// from disk, where it is corruption.
func (st *state) apply(rec network.Message) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch r := rec.(type) {
	case Item:
		q := st.items[r.RingID]
		if q == nil {
			q = make(map[string]core.Value)
			st.items[r.RingID] = q
		}
		q[r.Qual] = r.Val
	case DeletedItem:
		if q, ok := st.items[r.RingID]; ok {
			delete(q, r.Qual)
			if len(q) == 0 {
				delete(st.items, r.RingID)
			}
		}
	case Counter:
		st.counters[r.Key] = r.TS
	case DeletedCounter:
		delete(st.counters, r.Key)
	default:
		return false
	}
	return true
}

// Store is one handle on a peer's recoverable state. It is safe for
// concurrent use: the replica path (dht.LocalStore) and the counter path
// (kts.Service) hold separate locks and share one Store.
//
// Writes on a WAL-backed handle are journaled; how soon they hit stable
// storage is the fsync policy's business. Sync forces everything
// buffered down; Close syncs and releases. Crash models abrupt peer
// death — buffered records are dropped and only what the media already
// holds survives — so tests and the simulation can exercise the
// recovery path honestly.
type Store struct {
	// st is the state this handle serves, and nil once the handle has
	// crashed or closed: a dead process serves nothing, whatever its
	// media keeps. Reads load it and take only the state's lock.
	st atomic.Pointer[state]
	// log journals every write; nil for NewMem and depot handles.
	log *wal
}

func open(st *state, log *wal) *Store {
	s := &Store{log: log}
	s.st.Store(st)
	return s
}

// NewMem returns an empty volatile store.
func NewMem() *Store { return open(newState(), nil) }

// errClosed reports a write to a dead handle.
var errClosed = fmt.Errorf("write to a closed store: %w", ErrStore)

// record is any of the four records.
type record interface {
	Item | DeletedItem | Counter | DeletedCounter
}

// write applies rec to the live state and, when there is a log, appends
// it. The log's lock is taken before the state's, so the log holds the
// records in the order they were applied. It is generic so that only a
// logged record is boxed on the heap.
func write[R record](s *Store, rec R) error {
	if s.log != nil {
		s.log.mu.Lock()
		defer s.log.mu.Unlock()
	}
	st := s.st.Load()
	if st == nil {
		return errClosed
	}
	st.apply(rec)
	if s.log == nil {
		return nil
	}
	return s.appendLocked(rec)
}

// read runs fn on the live state under its lock; a dead handle reads
// nothing.
func (s *Store) read(fn func(st *state)) {
	if st := s.st.Load(); st != nil {
		st.mu.Lock()
		defer st.mu.Unlock()
		fn(st)
	}
}

// PutItem records the replica stored under (it.RingID, it.Qual),
// overwriting any previous value.
func (s *Store) PutItem(it Item) error { return write(s, it) }

// DeleteItem removes the replica stored under (rid, qual). Deleting an
// absent item is not an error.
func (s *Store) DeleteItem(rid core.ID, qual string) error {
	return write(s, DeletedItem{RingID: rid, Qual: qual})
}

// PutCounter records the KTS counter for k.
func (s *Store) PutCounter(k core.Key, ts core.Timestamp) error {
	return write(s, Counter{Key: k, TS: ts})
}

// DeleteCounter removes the counter for k (responsibility ceded).
func (s *Store) DeleteCounter(k core.Key) error { return write(s, DeletedCounter{Key: k}) }

// GetItem returns the replica stored under (rid, qual).
func (s *Store) GetItem(rid core.ID, qual string) (v core.Value, ok bool) {
	s.read(func(st *state) { v, ok = st.items[rid][qual] })
	return v, ok
}

// EachItem visits every stored item in unspecified order; fn returning
// false stops the walk. The walk holds the state's lock: do not call
// back into the store from fn.
func (s *Store) EachItem(fn func(Item) bool) {
	s.read(func(st *state) {
		for rid, q := range st.items {
			for qual, val := range q {
				if !fn(Item{RingID: rid, Qual: qual, Val: val}) {
					return
				}
			}
		}
	})
}

// ItemCount returns the number of stored items.
func (s *Store) ItemCount() (n int) {
	s.read(func(st *state) {
		for _, q := range st.items {
			n += len(q)
		}
	})
	return n
}

// GetCounter returns the KTS counter for k.
func (s *Store) GetCounter(k core.Key) (ts core.Timestamp, ok bool) {
	s.read(func(st *state) { ts, ok = st.counters[k] })
	return ts, ok
}

// Counters returns every persisted counter, in unspecified order.
func (s *Store) Counters() (out []Counter) {
	s.read(func(st *state) {
		out = make([]Counter, 0, len(st.counters))
		for k, ts := range st.counters {
			out = append(out, Counter{Key: k, TS: ts})
		}
	})
	return out
}

// Crash models abrupt peer death: the handle dies, and buffered (not
// yet stable) log records are dropped. What a later open finds is what
// the media kept: nothing for NewMem, the synced prefix for OpenWAL,
// everything for a depot slot.
func (s *Store) Crash() { s.shut(false) }

// Close flushes and syncs the log, if any, and kills the handle.
func (s *Store) Close() error { return s.shut(true) }
