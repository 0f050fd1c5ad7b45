package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
)

// notARecord is a registered message that is no log record, standing in
// for the RPC types a node's binary registers beside the records.
type notARecord struct{ Key core.Key }

func init() { network.RegisterMessage(notARecord{}) }

// recordFrame frames one record, for seeding the fuzzer with
// well-formed log bytes.
func recordFrame(rec network.Message) []byte {
	b, err := appendRecord(nil, rec)
	if err != nil {
		panic(err)
	}
	return b
}

// counterFrame frames one counter-put record.
func counterFrame(k core.Key, ts core.Timestamp) []byte {
	return recordFrame(Counter{Key: k, TS: ts})
}

// FuzzWALReplay throws arbitrary bytes at the recovery path as the
// write-ahead log's on-disk content. Whatever the bytes, OpenWAL must
// not panic; failures must wrap ErrStore; and a successful recovery
// must be stable — closing and reopening the directory reproduces the
// exact same state with no new torn tail, and the log stays appendable.
func FuzzWALReplay(f *testing.F) {
	valid := append([]byte(walMagicStr), counterFrame("agenda:mon", core.TS(7))...)
	valid = append(valid, counterFrame("agenda:tue", core.TS(9))...)
	f.Add([]byte{})
	f.Add([]byte(walMagicStr))
	f.Add([]byte(walMagicStr[:3])) // torn mid-header
	f.Add([]byte("NOTAWAL!"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	tampered := append([]byte{}, valid...)
	tampered[len(walMagicStr)+9] ^= 0xff // corrupt first record's payload
	f.Add(tampered)
	huge := append([]byte(walMagicStr), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0) // insane length prefix
	f.Add(huge)
	for _, rec := range []network.Message{notARecord{Key: "k"}, nil} { // CRC-valid frames that are no record
		f.Add(append([]byte(walMagicStr), recordFrame(rec)...))
	}
	f.Add(oldFormatLog)

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			if !errors.Is(err, ErrStore) {
				t.Fatalf("open error does not wrap ErrStore: %v", err)
			}
			return
		}
		rec := w.Recovered()
		items, counters := w.ItemCount(), len(w.Counters())
		if rec.Items != items || rec.Counters != counters {
			t.Fatalf("Recovered reports %d/%d, state holds %d/%d",
				rec.Items, rec.Counters, items, counters)
		}
		// The recovered log must accept appends.
		if err := w.PutCounter("fuzz-probe", core.TS(1)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// Reopen: recovery already truncated any torn tail, so the second
		// open must see a clean log with identical state plus the probe.
		w2, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("reopen of a recovered dir failed: %v", err)
		}
		defer w2.Close()
		if w2.Recovered().TornTail {
			t.Fatal("second open still reports a torn tail")
		}
		if got := w2.ItemCount(); got != items {
			t.Fatalf("reopen items = %d, want %d", got, items)
		}
		if got := len(w2.Counters()); got != counters+1 {
			t.Fatalf("reopen counters = %d, want %d", got, counters+1)
		}
		if _, ok := findCounter(w2, "fuzz-probe"); !ok {
			t.Fatal("probe counter lost across reopen")
		}
	})
}

// findCounter scans the store's counters for a key.
func findCounter(w *Store, k core.Key) (core.Timestamp, bool) {
	for _, c := range w.Counters() {
		if c.Key == k {
			return c.TS, true
		}
	}
	return core.Timestamp{}, false
}
