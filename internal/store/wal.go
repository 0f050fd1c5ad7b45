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
	"time"

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

// replay decodes one frame's payload and applies it to st. The frame's
// CRC has already been verified; a payload that is not one of the four
// records is still corruption (a CRC collision or an encoder bug), never
// tolerated.
func (st *state) replay(payload []byte) error {
	rec, err := network.DecodeMessage(payload)
	if err != nil {
		return fmt.Errorf("%v: %w", err, errCorrupt())
	}
	if !st.apply(rec) {
		return fmt.Errorf("%T is not a record: %w", rec, errCorrupt())
	}
	return nil
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

// WALStats counts the log's disk activity since open: what a node
// exports as dcdht_store_wal_appends_total and
// dcdht_store_wal_fsyncs_total, the per-put costs the benchmark reads.
type WALStats struct {
	// Appends is the number of records framed and appended (buffered
	// appends under SyncBatch count when framed, not when flushed).
	Appends uint64
	// Fsyncs counts successful fsync calls on the log and snapshot
	// files, the price of the chosen durability policy.
	Fsyncs uint64
}

// wal is the log behind a Store opened by OpenWAL: every write appended
// as a CRC-framed record, the state snapshotted and the log truncated
// every CompactEvery records. Its lock is taken before the state's, and
// reads take only the state's, so no read waits on an fsync or a
// compaction's file work.
type wal struct {
	dir string
	opt WALOptions
	rec Recovered // fixed once OpenWAL returns

	mu    sync.Mutex
	f     *os.File
	buf   []byte // framed records not yet written; only SyncBatch leaves any between appends
	recs  int    // records appended since the last snapshot
	stats WALStats

	flushStop chan struct{} // SyncBatch flusher shutdown, nil otherwise
	flushDone chan struct{}
}

// OpenWAL opens (creating if needed) the data directory dir, replays its
// snapshot and log into a fresh state, and returns a Store that appends
// every later write to the log. Errors wrap ErrStore; unrecoverable
// mid-log or snapshot corruption also wraps ErrCorruptLog. A torn final
// log record is truncated away silently (Recovered reports it), because
// that is what a crash mid-append leaves behind.
func OpenWAL(dir string, opt WALOptions) (*Store, error) {
	l := &wal{dir: dir, opt: opt.withDefaults()}
	st := newState()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("data dir %s: %v: %w", dir, err, ErrStore)
	}
	// A tmp snapshot is a snapshot that never landed: ignore and remove.
	os.Remove(filepath.Join(dir, snapTmpName))
	if err := l.loadSnapshot(st); err != nil {
		return nil, err
	}
	if err := l.replayLog(st); err != nil {
		return nil, err
	}
	s := open(st, l)
	l.rec.Items, l.rec.Counters = s.ItemCount(), len(st.counters)
	if l.opt.Policy == SyncBatch {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go s.flusher(l.flushStop, l.flushDone)
	}
	return s, nil
}

// Recovered reports what OpenWAL reconstructed; zero for a store with no
// log.
func (s *Store) Recovered() Recovered {
	if s.log == nil {
		return Recovered{}
	}
	return s.log.rec
}

// Stats returns a snapshot of the log's disk-activity counters; zero for
// a store with no log.
func (s *Store) Stats() WALStats {
	if s.log == nil {
		return WALStats{}
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return s.log.stats
}

// loadSnapshot seeds the in-memory state from the snapshot file, if one
// exists. The snapshot is written atomically, so any damage inside it is
// real corruption, never a torn write.
func (l *wal) loadSnapshot(st *state) error {
	path := filepath.Join(l.dir, snapName)
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
		if err := st.replay(payload); err != nil {
			return fmt.Errorf("snapshot %s: record at offset %d: %w", path, off, err)
		}
		off = next
	}
	return nil
}

// replayLog applies the write-ahead log on top of the snapshot state,
// truncating a torn tail and opening the file for appending.
func (l *wal) replayLog(st *state) error {
	path := filepath.Join(l.dir, walName)
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
		l.rec.TornTail = true
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
				l.rec.TornTail = true
				break
			}
			if !ok {
				f.Close()
				return fmt.Errorf("wal %s: corrupt record at offset %d (%d valid records before it): %w",
					path, off, l.rec.Records, errCorrupt())
			}
			if err := st.replay(payload); err != nil {
				f.Close()
				return fmt.Errorf("wal %s: record at offset %d: %w", path, off, err)
			}
			l.rec.Records++
			off = next
			valid = off
		}
	}
	if valid < len(data) || l.rec.TornTail {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return fmt.Errorf("wal %s: truncate torn tail: %v: %w", path, err, ErrStore)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal %s: %v: %w", path, err, ErrStore)
	}
	l.f = f
	l.recs = l.rec.Records
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

// ---- appends, sync, compaction, shutdown --------------------------------

// appendLocked frames rec into the log's buffer, writes it per the sync
// policy and compacts when due. Caller holds s.log.mu.
func (s *Store) appendLocked(rec network.Message) error {
	l := s.log
	var err error
	if l.buf, err = appendRecord(l.buf, rec); err != nil {
		return fmt.Errorf("wal append: %v: %w", err, ErrStore)
	}
	if l.opt.Policy != SyncBatch {
		_, err := l.f.Write(l.buf)
		l.buf = l.buf[:0]
		if err != nil {
			return fmt.Errorf("wal append: %v: %w", err, ErrStore)
		}
		if l.opt.Policy == SyncAlways {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("wal fsync: %v: %w", err, ErrStore)
			}
			l.stats.Fsyncs++
		}
	}
	l.stats.Appends++
	l.recs++
	if l.recs >= l.opt.CompactEvery {
		return s.compactLocked()
	}
	return nil
}

// flusher is the SyncBatch background task. The channels come in as
// arguments because stopFlusherLocked nils the struct fields.
func (s *Store) flusher(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.log.opt.BatchInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Sync()
		case <-stop:
			return
		}
	}
}

// Sync forces buffered log records to stable storage; a store with no
// log has nothing to sync. Pending frames hit the file under the log's
// lock, and the file hits stable storage after it is released, so no
// write waits out the disk. The file is fixed at open, and Close and
// Crash stop the flusher before they close it.
func (s *Store) Sync() error {
	l := s.log
	if l == nil {
		return nil
	}
	l.mu.Lock()
	err := l.writeLocked()
	l.mu.Unlock()
	if err != nil || s.st.Load() == nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal fsync: %v: %w", err, ErrStore)
	}
	l.mu.Lock()
	l.stats.Fsyncs++
	l.mu.Unlock()
	return nil
}

// writeLocked hands the pending frames to the file. A dead handle has
// none: shutting down clears them.
func (l *wal) writeLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal flush: %v: %w", err, ErrStore)
	}
	l.buf = l.buf[:0]
	return nil
}

// Compact snapshots the state and truncates the log, regardless of the
// CompactEvery budget; a store with no log has nothing to compact.
func (s *Store) Compact() error {
	l := s.log
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.st.Load() == nil {
		return fmt.Errorf("compact closed store: %w", ErrStore)
	}
	return s.compactLocked()
}

// compactLocked writes snapshot.tmp, fsyncs it, renames it over the
// snapshot, fsyncs the directory, then truncates the log back to its
// header. A crash at any point leaves either the old snapshot + full
// log or the new snapshot + (possibly still full) log — both replay to
// the same state, because log records are idempotent overwrites. Caller
// holds s.log.mu on a live handle.
func (s *Store) compactLocked() error {
	l := s.log
	snap := []byte(snapMagicStr)
	var err error
	s.EachItem(func(it Item) bool {
		snap, err = appendRecord(snap, it)
		return err == nil
	})
	for _, c := range s.Counters() {
		if err == nil {
			snap, err = appendRecord(snap, c)
		}
	}
	if err != nil {
		return fmt.Errorf("snapshot encode: %v: %w", err, ErrStore)
	}

	tmp := filepath.Join(l.dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot tmp: %v: %w", err, ErrStore)
	}
	if _, err = f.Write(snap); err == nil {
		err = f.Sync()
		if err == nil {
			l.stats.Fsyncs++
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot write: %v: %w", err, ErrStore)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot rename: %v: %w", err, ErrStore)
	}
	syncDir(l.dir)

	// The snapshot has landed: drop pending frames (they are inside it)
	// and reset the log to just its header.
	l.buf = l.buf[:0]
	if err := l.f.Truncate(int64(len(walMagicStr))); err != nil {
		return fmt.Errorf("wal truncate: %v: %w", err, ErrStore)
	}
	if _, err := l.f.Seek(int64(len(walMagicStr)), io.SeekStart); err != nil {
		return fmt.Errorf("wal seek: %v: %w", err, ErrStore)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal fsync: %v: %w", err, ErrStore)
	}
	l.stats.Fsyncs++
	l.recs = 0
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

// shut kills the handle. A WAL-backed handle dies under the log's lock:
// Close (flush) writes the pending frames and fsyncs the log first;
// Crash drops them the way SIGKILL would, releasing the file with no
// flush, so the directory holds whatever the sync policy had already
// made stable.
func (s *Store) shut(flush bool) error {
	l := s.log
	if l == nil {
		s.st.Store(nil)
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.st.Load() == nil {
		return nil
	}
	var err error
	if flush {
		if err = l.writeLocked(); err == nil {
			if err = l.f.Sync(); err != nil {
				err = fmt.Errorf("wal fsync: %v: %w", err, ErrStore)
			} else {
				l.stats.Fsyncs++
			}
		}
	}
	s.st.Store(nil)
	l.buf = nil
	l.stopFlusherLocked()
	if cerr := l.f.Close(); flush && err == nil && cerr != nil {
		err = fmt.Errorf("wal close: %v: %w", cerr, ErrStore)
	}
	return err
}

func (l *wal) stopFlusherLocked() {
	if l.flushStop == nil {
		return
	}
	close(l.flushStop)
	l.flushStop = nil
	// The flusher's Sync takes l.mu briefly and finds nothing pending,
	// so wait for it with the lock released.
	l.mu.Unlock()
	<-l.flushDone
	l.mu.Lock()
}
