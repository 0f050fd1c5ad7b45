package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
)

func item(rid uint64, qual, data string, ts uint64) Item {
	return Item{RingID: core.ID(rid), Qual: qual, Val: core.Value{Data: []byte(data), TS: core.TS(ts)}}
}

// openT opens a WAL-backed store or fails the test.
func openT(t *testing.T, dir string, opt WALOptions) *Store {
	t.Helper()
	w, err := OpenWAL(dir, opt)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", dir, err)
	}
	return w
}

func TestWALEmptyLogReplay(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	if rec := w.Recovered(); rec.Items != 0 || rec.Counters != 0 || rec.Records != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovered %+v, want all zero", rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open the now header-only log: still empty, still clean.
	w = openT(t, dir, WALOptions{})
	defer w.Close()
	if rec := w.Recovered(); rec.Items != 0 || rec.Counters != 0 || rec.TornTail {
		t.Fatalf("empty log recovered %+v, want all zero", rec)
	}
}

// TestWALRoundTrip writes all four record kinds and reads them back
// through log replay, then through a snapshot. An item with empty Data
// comes back with nil Data.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	high := core.Timestamp{Hi: 1 << 63, Lo: 9}
	for _, err := range []error{
		w.PutItem(item(7, "ums|k|h1", "v1", 3)),
		w.PutItem(Item{RingID: 8, Qual: "ums|e|h1", Val: core.Value{Data: []byte{}, TS: core.TS(4)}}),
		w.PutItem(item(9, "ums|k|h2", "v2", 4)),
		w.DeleteItem(9, "ums|k|h2"),
		w.PutCounter("k", high),
		w.PutCounter("gone", core.TS(9)),
		w.DeleteCounter("gone"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, w *Store) {
		t.Helper()
		if v, ok := w.GetItem(7, "ums|k|h1"); !ok || string(v.Data) != "v1" || v.TS != core.TS(3) {
			t.Errorf("%s: item = %v %v", stage, v, ok)
		}
		if v, ok := w.GetItem(8, "ums|e|h1"); !ok || v.Data != nil || v.TS != core.TS(4) {
			t.Errorf("%s: empty item = %#v %v, want nil Data at ts(4)", stage, v, ok)
		}
		if _, ok := w.GetItem(9, "ums|k|h2"); ok {
			t.Errorf("%s: deleted item resurrected", stage)
		}
		if cs := w.Counters(); len(cs) != 1 || cs[0] != (Counter{Key: "k", TS: high}) {
			t.Errorf("%s: counters = %v", stage, cs)
		}
	}

	w = openT(t, dir, WALOptions{})
	rec := w.Recovered()
	if rec.Items != 2 || rec.Counters != 1 || rec.Records != 7 || rec.TornTail {
		t.Fatalf("recovered %+v, want 2 items, 1 counter, 7 clean records", rec)
	}
	check("log replay", w)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = openT(t, dir, WALOptions{})
	defer w.Close()
	if rec := w.Recovered(); rec.Records != 0 {
		t.Fatalf("after compaction %d log records replayed, want 0", rec.Records)
	}
	check("snapshot", w)
}

func TestWALTornFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	for i := uint64(1); i <= 5; i++ {
		if err := w.PutCounter("k", core.TS(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop a few bytes off the file's tail, the
	// way a crash mid-append does.
	path := filepath.Join(dir, walName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	w = openT(t, dir, WALOptions{})
	rec := w.Recovered()
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if rec.Records != 4 || rec.Counters != 1 {
		t.Fatalf("recovered %+v, want the 4 intact records", rec)
	}
	if cs := w.Counters(); len(cs) != 1 || cs[0].TS != core.TS(4) {
		t.Fatalf("counter after torn tail = %v, want ts(4)", cs)
	}
	// The torn bytes must be gone: appending and re-opening replays clean.
	if err := w.PutCounter("k", core.TS(6)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = openT(t, dir, WALOptions{})
	defer w.Close()
	if rec := w.Recovered(); rec.TornTail || rec.Records != 5 {
		t.Fatalf("after truncate+append recovered %+v", rec)
	}
	if cs := w.Counters(); len(cs) != 1 || cs[0].TS != core.TS(6) {
		t.Fatalf("counter = %v, want ts(6)", cs)
	}
}

func TestWALMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	for i := uint64(1); i <= 8; i++ {
		if err := w.PutCounter("k", core.TS(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in an early record: the CRC fails with valid
	// data after it — real corruption, not a torn tail.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(walMagicStr) + frameOverhead + 2 // inside record 0's payload
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenWAL(dir, WALOptions{})
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorruptLog", err)
	}
	if !errors.Is(err, ErrStore) {
		t.Fatalf("corruption must also classify as ErrStore, got %v", err)
	}
}

func TestWALSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	if err := w.PutItem(item(1, "ums|a|h1", "old", 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.PutItem(item(2, "ums|b|h1", "keep", 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCounter("a", core.TS(1)); err != nil {
		t.Fatal(err)
	}
	// Snapshot, then write a tail the snapshot does not contain.
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.PutItem(item(1, "ums|a|h1", "new", 5)); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCounter("a", core.TS(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w = openT(t, dir, WALOptions{})
	defer w.Close()
	rec := w.Recovered()
	if rec.Items != 2 || rec.Counters != 1 {
		t.Fatalf("recovered %+v, want 2 items + 1 counter", rec)
	}
	if rec.Records != 2 {
		t.Fatalf("recovered %d log records, want only the 2 post-snapshot ones", rec.Records)
	}
	if v, ok := w.GetItem(1, "ums|a|h1"); !ok || string(v.Data) != "new" || v.TS != core.TS(5) {
		t.Fatalf("tail must override snapshot: %v %v", v, ok)
	}
	if v, ok := w.GetItem(2, "ums|b|h1"); !ok || string(v.Data) != "keep" {
		t.Fatalf("snapshot item lost: %v %v", v, ok)
	}
	if cs := w.Counters(); len(cs) != 1 || cs[0].TS != core.TS(5) {
		t.Fatalf("counter = %v, want ts(5)", cs)
	}
}

func TestWALAutoCompactionKeepsState(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{CompactEvery: 16})
	for i := uint64(1); i <= 100; i++ {
		if err := w.PutCounter("k", core.TS(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.PutItem(item(3, "ums|k|h1", "v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after 200 records with CompactEvery=16: %v", err)
	}
	w = openT(t, dir, WALOptions{CompactEvery: 16})
	defer w.Close()
	if cs := w.Counters(); len(cs) != 1 || cs[0].TS != core.TS(100) {
		t.Fatalf("counter = %v, want ts(100)", cs)
	}
	if v, ok := w.GetItem(3, "ums|k|h1"); !ok || v.TS != core.TS(100) {
		t.Fatalf("item = %v %v, want ts(100)", v, ok)
	}
}

func TestWALCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{})
	if err := w.PutCounter("k", core.TS(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, WALOptions{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorruptLog", err)
	}
}

func TestWALBadDataDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "actually-a-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWAL(file, WALOptions{})
	if !errors.Is(err, ErrStore) {
		t.Fatalf("bad data dir: err = %v, want ErrStore", err)
	}
	if errors.Is(err, ErrCorruptLog) {
		t.Fatalf("an unusable dir is not log corruption: %v", err)
	}
}

// TestWALCounterMonotonicityAcrossTwoRestarts drives concurrent counter
// appends (run under -race), crashes, recovers, repeats — after each
// recovery the counter must be at least the highest value generated
// before the crash, so a responsible re-seeded from the store can never
// re-issue a timestamp. SyncAlways makes every append stable, so "at
// least" tightens to "exactly".
func TestWALCounterMonotonicityAcrossTwoRestarts(t *testing.T) {
	dir := t.TempDir()
	high := core.TSZero
	for restart := 0; restart < 2; restart++ {
		w := openT(t, dir, WALOptions{Policy: SyncAlways})
		if cs := w.Counters(); restart > 0 {
			if len(cs) != 1 || cs[0].TS.Less(high) {
				t.Fatalf("restart %d: recovered %v, want >= %v", restart, cs, high)
			}
			high = cs[0].TS
		}
		// Concurrent generators: each bumps the shared counter past the
		// other's last write, like racing gen_ts handlers, and journals
		// it under the same lock, as kts.Service does under its mutex
		// (journalling outside it would let a lower value land last).
		var mu sync.Mutex
		next := high
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					mu.Lock()
					next = next.Next()
					err := w.PutCounter("k", next)
					mu.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		high = next
		w.Crash() // no graceful flush: SyncAlways must have persisted everything
	}
	w := openT(t, dir, WALOptions{})
	defer w.Close()
	cs := w.Counters()
	if len(cs) != 1 || cs[0].TS.Less(high) {
		t.Fatalf("after two crash-restarts: %v, want >= %v", cs, high)
	}
}

// TestWALCrashDropsUnsyncedBatch shows the SyncBatch trade-off: records
// buffered past the last sync die with the process, while the synced
// prefix survives.
func TestWALCrashDropsUnsyncedBatch(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, WALOptions{Policy: SyncBatch, BatchInterval: time.Hour})
	if err := w.PutCounter("k", core.TS(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCounter("k", core.TS(2)); err != nil {
		t.Fatal(err)
	}
	w.Crash()

	w = openT(t, dir, WALOptions{})
	defer w.Close()
	cs := w.Counters()
	if len(cs) != 1 || cs[0].TS != core.TS(1) {
		t.Fatalf("recovered %v, want only the synced ts(1)", cs)
	}
}

// TestWALFlusherRacesAppends runs appends, reads and compactions
// against a fast SyncBatch flusher, whose fsync runs outside the lock,
// then ends the handle by Close or by Crash while they are still going.
// Close keeps every record; Crash leaves a log that reopens cleanly.
func TestWALFlusherRacesAppends(t *testing.T) {
	for _, crash := range []bool{false, true} {
		dir := t.TempDir()
		w := openT(t, dir, WALOptions{Policy: SyncBatch, BatchInterval: time.Millisecond, CompactEvery: 64})
		const writers, perWriter = 4, 300
		var wg sync.WaitGroup
		for g := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range perWriter {
					k := core.Key(string(rune('a' + g)))
					if w.PutCounter(k, core.TS(uint64(i+1))) != nil && !crash {
						t.Errorf("writer %d: put %d failed", g, i)
						return
					}
					w.PutItem(item(uint64(g), "q", "v", uint64(i+1)))
					w.GetCounter(k)
					w.GetItem(core.ID(g), "q")
					if crash && g == 0 && i == perWriter/2 {
						w.Crash()
					}
				}
			}()
		}
		wg.Wait()
		if !crash {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.Stats().Fsyncs == 0 {
				t.Fatal("the flusher never synced")
			}
		}
		r, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("crash=%v: reopen: %v", crash, err)
		}
		if !crash {
			for g := range writers {
				k := core.Key(string(rune('a' + g)))
				if ts, ok := r.GetCounter(k); !ok || ts != core.TS(perWriter) {
					t.Errorf("counter %q = %v, %v after Close; want ts(%d)", k, ts, ok, perWriter)
				}
				if v, ok := r.GetItem(core.ID(g), "q"); !ok || v.TS != core.TS(perWriter) {
					t.Errorf("item %d = %v, %v after Close; want ts(%d)", g, v, ok, perWriter)
				}
			}
		}
		r.Close()
	}
}

func TestDepotSurvivesCrashAndResumes(t *testing.T) {
	d := NewDepot()
	s := d.Open("peer0")
	if err := s.PutItem(item(7, "ums|k|h1", "v", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCounter("k", core.TS(3)); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, ok := s.GetItem(7, "ums|k|h1"); ok {
		t.Fatal("crashed handle still serves reads")
	}
	if err := s.PutCounter("k", core.TS(9)); !errors.Is(err, ErrStore) {
		t.Fatalf("post-crash write: err = %v, want ErrStore", err)
	}

	if !d.Has("peer0") {
		t.Fatal("depot forgot the crashed peer's slot")
	}
	r := d.Open("peer0")
	if v, ok := r.GetItem(7, "ums|k|h1"); !ok || string(v.Data) != "v" {
		t.Fatalf("restart-with-state item = %v %v", v, ok)
	}
	if cs := r.Counters(); len(cs) != 1 || cs[0].TS != core.TS(3) {
		t.Fatalf("restart counters = %v (the post-crash write must not have landed)", cs)
	}
	d.Drop("peer0")
	if d.Has("peer0") {
		t.Fatal("dropped slot still present")
	}
	if f := d.Open("peer0"); f.ItemCount() != 0 {
		t.Fatal("dropped slot not empty on re-open")
	}
}

func TestMemCrashLosesEverything(t *testing.T) {
	m := NewMem()
	if err := m.PutItem(item(1, "q", "v", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.PutCounter("k", core.TS(1)); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if m.ItemCount() != 0 || len(m.Counters()) != 0 {
		t.Fatal("a crashed NewMem handle must read nothing")
	}
}

// oldFormatLog is a log an earlier build wrote: the DCWAL1 magic, then a
// counter and an item record in that build's hand-rolled encoding.
var oldFormatLog = []byte("DCWAL1\n\x00\x1f\x00\x00\x00%\xdcd\xef\x03\n\x00\x00\x00agenda:mon\x00\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00A\x00\x00\x00$\x8biM\x01\x05\x00\x00\x00\x00\x00\x00\x00\x15\x00\x00\x00replica|agenda:mon|h2\x00\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x0b\x00\x00\x00standup 9am")

// TestWALRejectsWhatIsNoRecord: a frame whose CRC holds but whose body
// is not one of the four records, and a file in an older format, are
// corruption, whether in the log or in the snapshot.
func TestWALRejectsWhatIsNoRecord(t *testing.T) {
	good := counterFrame("k", core.TS(1))
	cat := slices.Concat[[]byte]
	unregistered := network.AppendString(nil, "store.noSuchRecord")
	for _, tc := range []struct {
		name, file string
		data       []byte
	}{
		{"registered non-record", walName, cat([]byte(walMagicStr), recordFrame(notARecord{Key: "k"}), good)},
		{"nil message", walName, cat([]byte(walMagicStr), recordFrame(nil), good)},
		{"unregistered type", walName, cat([]byte(walMagicStr), frameOf(unregistered), good)},
		{"trailing bytes", walName, cat([]byte(walMagicStr), frameOf(append(recordFrame(Counter{Key: "k"})[frameOverhead:], 0)), good)},
		{"old-format log", walName, oldFormatLog},
		{"registered non-record in snapshot", snapName, cat([]byte(snapMagicStr), recordFrame(notARecord{Key: "k"}))},
		{"nil message in snapshot", snapName, cat([]byte(snapMagicStr), recordFrame(nil))},
		{"old-format snapshot", snapName, cat([]byte("DCSNAP1\n"), oldFormatLog[len(walMagicStr):])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.file), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenWAL(dir, WALOptions{})
			if !errors.Is(err, ErrCorruptLog) || !errors.Is(err, ErrStore) {
				t.Fatalf("err = %v, want ErrCorruptLog and ErrStore", err)
			}
		})
	}
}

// frameOf frames a raw payload, valid CRC included.
func frameOf(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}
