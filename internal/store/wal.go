package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/network"
)

// File names inside a data directory. The snapshot is replaced
// atomically (write tmp, fsync, rename); the log is append-only and
// truncated back to its header right after a snapshot lands.
const (
	walName      = "wal.dcdht"
	snapName     = "snapshot.dcdht"
	snapTmpName  = "snapshot.tmp"
	walMagicStr  = "DCWAL2\n\x00"
	snapMagicStr = "DCSNAP2\n"
)

// On-disk records, shared by the write-ahead log and the snapshot file
// (docs/STORAGE.md documents the format). Every record is framed as
//
//	uint32  payload length (little-endian)
//	uint32  CRC-32C (Castagnoli) of the payload
//	bytes   payload: one message in internal/network's wire codec
//
// and the message is one of four record types: Item and Counter record
// puts, DeletedItem and DeletedCounter deletes. The codec writes a
// type's name and its fields in declaration order, so renaming or
// reordering a record type's fields, or those of a type it carries
// (core.Value, core.Timestamp), changes the format and needs new
// magics.

// DeletedItem is the log record of a DeleteItem.
type DeletedItem struct {
	RingID core.ID
	Qual   string
}

// DeletedCounter is the log record of a DeleteCounter.
type DeletedCounter struct {
	Key core.Key
}

func init() {
	network.RegisterMessage(Item{}, Counter{}, DeletedItem{}, DeletedCounter{})
}

// frameOverhead is the byte cost of one record frame.
const frameOverhead = 8

// maxRecord bounds one record's payload: larger length prefixes are
// treated as corruption, not allocation requests.
const maxRecord = 1 << 28

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// common platforms).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends rec to dst as one frame. On failure dst comes
// back as it was.
func appendRecord(dst []byte, rec network.Message) ([]byte, error) {
	start := len(dst)
	b, err := network.AppendMessage(append(dst, make([]byte, frameOverhead)...), rec)
	if err != nil {
		return dst, err
	}
	payload := b[start+frameOverhead:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b, nil
}

// applyRecord decodes one payload and applies it to m. The frame's CRC
// has already been verified; a payload that is not one of the four
// records is still corruption (a CRC collision or an encoder bug),
// never tolerated.
func applyRecord(m *Mem, payload []byte) error {
	rec, err := network.DecodeMessage(payload)
	if err != nil {
		return fmt.Errorf("%v: %w", err, errCorrupt())
	}
	switch r := rec.(type) {
	case Item:
		return m.PutItem(r)
	case Counter:
		return m.PutCounter(r.Key, r.TS)
	case DeletedItem:
		return m.DeleteItem(r.RingID, r.Qual)
	case DeletedCounter:
		return m.DeleteCounter(r.Key)
	}
	return fmt.Errorf("%T is not a record: %w", rec, errCorrupt())
}

// SyncPolicy selects when appended records reach stable storage — the
// durability/throughput trade-off of docs/STORAGE.md.
type SyncPolicy int

const (
	// SyncOS (the default) writes every record through to the operating
	// system immediately but leaves fsync to the OS page cache (and to
	// snapshots and Close). A process crash loses nothing; a machine
	// crash can lose the unflushed suffix.
	SyncOS SyncPolicy = iota
	// SyncAlways fsyncs after every append: a generated timestamp or
	// accepted replica is on stable storage before the operation
	// acknowledges. Safest, slowest.
	SyncAlways
	// SyncBatch buffers appends and flushes+fsyncs on a background
	// ticker (WALOptions.BatchInterval). A crash loses at most one
	// interval of records. The recovery protocol (§4.2.2) tolerates
	// lost counter tail-records: the current responsible corrects
	// upward from the replicas, so this is the recommended default for
	// serving nodes.
	SyncBatch
)

// String names the policy the way the -fsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	default:
		return "os"
	}
}

// ParseSyncPolicy inverts String; it accepts "always", "batch" and "os".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "os", "":
		return SyncOS, nil
	}
	return SyncOS, fmt.Errorf("unknown fsync policy %q (want always, batch or os): %w", s, ErrStore)
}

// WALOptions tunes a disk-backed store. The zero value is usable.
type WALOptions struct {
	// Policy is the fsync policy. Default SyncOS.
	Policy SyncPolicy
	// BatchInterval is the SyncBatch flush period. Default 50ms.
	BatchInterval time.Duration
	// CompactEvery triggers a snapshot + log truncation after this many
	// appended records. Default 8192.
	CompactEvery int
}

func (o WALOptions) withDefaults() WALOptions {
	if o.BatchInterval <= 0 {
		o.BatchInterval = 50 * time.Millisecond
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 8192
	}
	return o
}

// Recovered summarises what OpenWAL reconstructed from disk.
type Recovered struct {
	// Items and Counters are the recovered state's sizes.
	Items, Counters int
	// Records is how many log records replayed (not counting the
	// snapshot's).
	Records int
	// TornTail reports that the log ended in a torn record — the
	// expected shape of a mid-append crash — which was truncated away.
	TornTail bool
}

// WAL is the disk-backed Store: current state in memory (a Mem), every
// mutation appended to a CRC-framed write-ahead log, state snapshotted
// and the log truncated every CompactEvery records. Opening a directory
// replays snapshot + log, tolerating a torn final record and rejecting
// anything corrupt before it.
type WAL struct {
	dir string
	opt WALOptions

	// mem is fixed at open and keeps its own lock, so reads skip mu;
	// closed is set under mu and read without it.
	mem    *Mem
	closed atomic.Bool

	mu    sync.Mutex
	logF  *os.File
	buf   []byte // framed records not yet written; only SyncBatch leaves any between appends
	recs  int    // records appended since the last snapshot
	rec   Recovered
	stats WALStats

	flushStop chan struct{} // SyncBatch flusher shutdown, nil otherwise
	flushDone chan struct{}
}

var _ Store = (*WAL)(nil)

// OpenWAL opens (creating if needed) the durable store in dir and
// recovers its state. Errors wrap ErrStore; unrecoverable mid-log or
// snapshot corruption also wraps ErrCorruptLog. A torn final log record
// is truncated away silently (Recovered reports it), because that is
// what a crash mid-append leaves behind.
func OpenWAL(dir string, opt WALOptions) (*WAL, error) {
	w := &WAL{dir: dir, opt: opt.withDefaults(), mem: NewMem()}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("data dir %s: %v: %w", dir, err, ErrStore)
	}
	// A tmp snapshot is a snapshot that never landed: ignore and remove.
	os.Remove(filepath.Join(dir, snapTmpName))
	if err := w.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := w.replayLog(); err != nil {
		return nil, err
	}
	w.rec.Items = w.mem.ItemCount()
	w.rec.Counters = len(w.mem.Counters())
	if w.opt.Policy == SyncBatch {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flusher(w.flushStop, w.flushDone)
	}
	return w, nil
}

// Recovered reports what opening the directory reconstructed.
func (w *WAL) Recovered() Recovered {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rec
}

// WALStats counts the log's disk activity since open — the raw material
// for the dcdht_store_wal_* metric families.
type WALStats struct {
	// Appends is the number of records framed and appended (buffered
	// appends under SyncBatch count when framed, not when flushed).
	Appends uint64
	// Fsyncs counts successful fsync calls on the log and snapshot
	// files, the price of the chosen durability policy.
	Fsyncs uint64
	// Compactions counts snapshot+truncate cycles.
	Compactions uint64
}

// Stats returns a snapshot of the disk-activity counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Dir returns the data directory.
func (w *WAL) Dir() string { return w.dir }

// loadSnapshot seeds the in-memory state from the snapshot file, if one
// exists. The snapshot is written atomically, so any damage inside it is
// real corruption, never a torn write.
func (w *WAL) loadSnapshot() error {
	path := filepath.Join(w.dir, snapName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("snapshot %s: %v: %w", path, err, ErrStore)
	}
	if len(data) < len(snapMagicStr) || string(data[:len(snapMagicStr)]) != snapMagicStr {
		return fmt.Errorf("snapshot %s: bad magic: %w", path, errCorrupt())
	}
	off := len(snapMagicStr)
	for off < len(data) {
		payload, next, ok, torn := nextFrame(data, off)
		if !ok || torn {
			return fmt.Errorf("snapshot %s: damaged record at offset %d: %w", path, off, errCorrupt())
		}
		if err := applyRecord(w.mem, payload); err != nil {
			return fmt.Errorf("snapshot %s: record at offset %d: %w", path, off, err)
		}
		off = next
	}
	return nil
}

// replayLog applies the write-ahead log on top of the snapshot state,
// truncating a torn tail and opening the file for appending.
func (w *WAL) replayLog() error {
	path := filepath.Join(w.dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal %s: %v: %w", path, err, ErrStore)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal %s: %v: %w", path, err, ErrStore)
	}
	valid := 0 // byte offset of the end of the valid prefix
	switch {
	case len(data) == 0:
		// Brand-new log: stamp the header.
		if _, err := f.Write([]byte(walMagicStr)); err != nil {
			f.Close()
			return fmt.Errorf("wal %s: write header: %v: %w", path, err, ErrStore)
		}
		valid = len(walMagicStr)
	case len(data) < len(walMagicStr) && string(data) == walMagicStr[:len(data)]:
		// Torn mid-header (crash during creation): rewrite it.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(walMagicStr), 0)
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("wal %s: rewrite header: %v: %w", path, err, ErrStore)
		}
		w.rec.TornTail = true
		valid = len(walMagicStr)
	case len(data) < len(walMagicStr) || string(data[:len(walMagicStr)]) != walMagicStr:
		f.Close()
		return fmt.Errorf("wal %s: bad magic: %w", path, errCorrupt())
	default:
		off := len(walMagicStr)
		valid = off
		for off < len(data) {
			payload, next, ok, torn := nextFrame(data, off)
			if torn {
				w.rec.TornTail = true
				break
			}
			if !ok {
				f.Close()
				return fmt.Errorf("wal %s: corrupt record at offset %d (%d valid records before it): %w",
					path, off, w.rec.Records, errCorrupt())
			}
			if err := applyRecord(w.mem, payload); err != nil {
				f.Close()
				return fmt.Errorf("wal %s: record at offset %d: %w", path, off, err)
			}
			w.rec.Records++
			off = next
			valid = off
		}
	}
	if valid < len(data) || w.rec.TornTail {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return fmt.Errorf("wal %s: truncate torn tail: %v: %w", path, err, ErrStore)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal %s: %v: %w", path, err, ErrStore)
	}
	w.logF = f
	w.recs = w.rec.Records
	return nil
}

// nextFrame parses one frame starting at off. ok=false means corruption;
// torn=true means the data simply ends mid-frame (tolerable only at the
// log's tail). next is the offset just past the frame.
func nextFrame(data []byte, off int) (payload []byte, next int, ok, torn bool) {
	rest := data[off:]
	if len(rest) < frameOverhead {
		return nil, off, false, true
	}
	n := int(binary.LittleEndian.Uint32(rest))
	sum := binary.LittleEndian.Uint32(rest[4:])
	if n > maxRecord {
		// An insane length prefix: garbage. If nothing follows the
		// header it is indistinguishable from a torn write.
		return nil, off, false, len(rest) <= frameOverhead+n
	}
	if len(rest) < frameOverhead+n {
		return nil, off, false, true
	}
	payload = rest[frameOverhead : frameOverhead+n]
	if crc32.Checksum(payload, crcTable) != sum {
		// A bad checksum at the exact tail is a torn write; anywhere
		// else it is corruption.
		return nil, off, false, len(rest) == frameOverhead+n
	}
	return payload, off + frameOverhead + n, true, false
}

// errCorrupt builds the double-classed corruption error: callers match
// either ErrStore (any storage failure) or ErrCorruptLog (specifically
// unrecoverable log damage).
func errCorrupt() error {
	return fmt.Errorf("%w: %w", ErrStore, ErrCorruptLog)
}

// ---- appends -----------------------------------------------------------

// appendLocked frames rec into w.buf, writes it per the sync policy and
// triggers compaction when due. Caller holds w.mu.
func (w *WAL) appendLocked(rec network.Message) error {
	if w.closed.Load() {
		return fmt.Errorf("append to closed store: %w", ErrStore)
	}
	var err error
	if w.buf, err = appendRecord(w.buf, rec); err != nil {
		return fmt.Errorf("wal append: %v: %w", err, ErrStore)
	}
	if w.opt.Policy != SyncBatch {
		_, err := w.logF.Write(w.buf)
		w.buf = w.buf[:0]
		if err != nil {
			return fmt.Errorf("wal append: %v: %w", err, ErrStore)
		}
		if w.opt.Policy == SyncAlways {
			if err := w.logF.Sync(); err != nil {
				return fmt.Errorf("wal fsync: %v: %w", err, ErrStore)
			}
			w.stats.Fsyncs++
		}
	}
	w.stats.Appends++
	w.recs++
	if w.recs >= w.opt.CompactEvery {
		return w.compactLocked()
	}
	return nil
}

// PutItem implements Store.
func (w *WAL) PutItem(it Item) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.mem.PutItem(it); err != nil {
		return err
	}
	return w.appendLocked(it)
}

// DeleteItem implements Store.
func (w *WAL) DeleteItem(rid core.ID, qual string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.mem.DeleteItem(rid, qual); err != nil {
		return err
	}
	return w.appendLocked(DeletedItem{RingID: rid, Qual: qual})
}

// PutCounter implements Store.
func (w *WAL) PutCounter(k core.Key, ts core.Timestamp) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.mem.PutCounter(k, ts); err != nil {
		return err
	}
	return w.appendLocked(Counter{Key: k, TS: ts})
}

// DeleteCounter implements Store.
func (w *WAL) DeleteCounter(k core.Key) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.mem.DeleteCounter(k); err != nil {
		return err
	}
	return w.appendLocked(DeletedCounter{Key: k})
}

// live returns the in-memory state, or nil once the handle has crashed
// or closed — a dead process serves nothing, whatever its disk holds.
func (w *WAL) live() *Mem {
	if w.closed.Load() {
		return nil
	}
	return w.mem
}

// GetItem implements Store (served from memory).
func (w *WAL) GetItem(rid core.ID, qual string) (core.Value, bool) {
	if m := w.live(); m != nil {
		return m.GetItem(rid, qual)
	}
	return core.Value{}, false
}

// EachItem implements Store (served from memory).
func (w *WAL) EachItem(fn func(Item) bool) {
	if m := w.live(); m != nil {
		m.EachItem(fn)
	}
}

// ItemCount implements Store (served from memory).
func (w *WAL) ItemCount() int {
	if m := w.live(); m != nil {
		return m.ItemCount()
	}
	return 0
}

// GetCounter implements Store (served from memory).
func (w *WAL) GetCounter(k core.Key) (core.Timestamp, bool) {
	if m := w.live(); m != nil {
		return m.GetCounter(k)
	}
	return core.TSZero, false
}

// Counters implements Store (served from memory).
func (w *WAL) Counters() []Counter {
	if m := w.live(); m != nil {
		return m.Counters()
	}
	return nil
}

// ---- sync, compaction, shutdown ----------------------------------------

// flusher is the SyncBatch background task. The channels come in as
// arguments because stopFlusherLocked nils the struct fields.
func (w *WAL) flusher(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(w.opt.BatchInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.Sync()
		case <-stop:
			return
		}
	}
}

// Sync implements Store: pending frames hit the file under mu, and the
// file hits stable storage after mu is released, so no append waits out
// the disk. logF is fixed at open, and Close and Crash stop the flusher
// before they close it.
func (w *WAL) Sync() error {
	w.mu.Lock()
	err := w.writeLocked()
	w.mu.Unlock()
	if err != nil || w.closed.Load() {
		return err
	}
	if err := w.logF.Sync(); err != nil {
		return fmt.Errorf("wal fsync: %v: %w", err, ErrStore)
	}
	w.mu.Lock()
	w.stats.Fsyncs++
	w.mu.Unlock()
	return nil
}

// writeLocked hands the pending frames of a live handle to the file.
func (w *WAL) writeLocked() error {
	if w.closed.Load() || len(w.buf) == 0 {
		return nil
	}
	if _, err := w.logF.Write(w.buf); err != nil {
		return fmt.Errorf("wal flush: %v: %w", err, ErrStore)
	}
	w.buf = w.buf[:0]
	return nil
}

// Compact snapshots the current state and truncates the log, regardless
// of the CompactEvery budget.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return fmt.Errorf("compact closed store: %w", ErrStore)
	}
	return w.compactLocked()
}

// compactLocked writes snapshot.tmp, fsyncs it, renames it over the
// snapshot, fsyncs the directory, then truncates the log back to its
// header. A crash at any point leaves either the old snapshot + full
// log or the new snapshot + (possibly still full) log — both replay to
// the same state, because log records are idempotent overwrites.
func (w *WAL) compactLocked() error {
	snap := []byte(snapMagicStr)
	var err error
	w.mem.EachItem(func(it Item) bool {
		snap, err = appendRecord(snap, it)
		return err == nil
	})
	for _, c := range w.mem.Counters() {
		if err == nil {
			snap, err = appendRecord(snap, c)
		}
	}
	if err != nil {
		return fmt.Errorf("snapshot encode: %v: %w", err, ErrStore)
	}

	tmp := filepath.Join(w.dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot tmp: %v: %w", err, ErrStore)
	}
	if _, err = f.Write(snap); err == nil {
		err = f.Sync()
		if err == nil {
			w.stats.Fsyncs++
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot write: %v: %w", err, ErrStore)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot rename: %v: %w", err, ErrStore)
	}
	syncDir(w.dir)

	// The snapshot has landed: drop pending frames (they are inside it)
	// and reset the log to just its header.
	w.buf = w.buf[:0]
	if err := w.logF.Truncate(int64(len(walMagicStr))); err != nil {
		return fmt.Errorf("wal truncate: %v: %w", err, ErrStore)
	}
	if _, err := w.logF.Seek(int64(len(walMagicStr)), io.SeekStart); err != nil {
		return fmt.Errorf("wal seek: %v: %w", err, ErrStore)
	}
	if err := w.logF.Sync(); err != nil {
		return fmt.Errorf("wal fsync: %v: %w", err, ErrStore)
	}
	w.stats.Fsyncs++
	w.stats.Compactions++
	w.recs = 0
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable. Best
// effort: some platforms reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Crash implements Store: the handle dies exactly the way SIGKILL would
// kill a process — pending unsynced frames are dropped on the floor, the
// file is released with no flush, and the on-disk state is whatever the
// sync policy had already made stable. Tests and the simulation use it
// to exercise recovery honestly.
func (w *WAL) Crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return
	}
	w.closed.Store(true)
	w.stopFlusherLocked()
	w.buf = nil
	w.logF.Close()
}

// Close implements Store: flush, fsync, release.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return nil
	}
	err := w.writeLocked()
	if err == nil {
		if err = w.logF.Sync(); err != nil {
			err = fmt.Errorf("wal fsync: %v: %w", err, ErrStore)
		} else {
			w.stats.Fsyncs++
		}
	}
	w.closed.Store(true)
	w.stopFlusherLocked()
	if cerr := w.logF.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal close: %v: %w", cerr, ErrStore)
	}
	return err
}

func (w *WAL) stopFlusherLocked() {
	if w.flushStop == nil {
		return
	}
	close(w.flushStop)
	w.flushStop = nil
	// Wait outside the lock would be cleaner, but the flusher's Sync
	// only blocks on w.mu briefly and checks closed first.
	w.mu.Unlock()
	<-w.flushDone
	w.mu.Lock()
}
