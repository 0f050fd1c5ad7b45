package dht

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestSnapshotAbsorbRoundTripThroughBacking moves a store's full
// contents into a second store running on an explicit backing, then back
// again, checking nothing is lost, duplicated or time-travelled in
// either direction.
func TestSnapshotAbsorbRoundTripThroughBacking(t *testing.T) {
	src := NewLocalStoreOn(store.NewMem())
	for i := 0; i < 20; i++ {
		qual := fmt.Sprintf("ums|k%d|hr0", i)
		src.Put(core.ID(i), qual, core.Value{Data: []byte{byte(i)}, TS: core.TS(uint64(i + 1))}, PutOverwrite)
	}

	dst := NewLocalStoreOn(store.NewMem())
	dst.Absorb(src.Snapshot())
	if dst.Len() != 20 || src.Len() != 20 {
		t.Fatalf("after absorb: src=%d dst=%d, want 20/20", src.Len(), dst.Len())
	}

	// Round-trip back into a third store and compare item by item.
	back := NewLocalStoreOn(store.NewMem())
	back.Absorb(dst.Snapshot())
	for i := 0; i < 20; i++ {
		qual := fmt.Sprintf("ums|k%d|hr0", i)
		v, ok := back.Get(core.ID(i), qual)
		if !ok || v.TS != core.TS(uint64(i+1)) || len(v.Data) != 1 || v.Data[0] != byte(i) {
			t.Fatalf("item %d after round-trip: %v %v", i, v, ok)
		}
	}
}

// TestAbsorbNewerWinsOnCollision absorbs over existing values: newer
// incoming timestamps must replace, older must not — a replica never
// travels backwards in time.
func TestAbsorbNewerWinsOnCollision(t *testing.T) {
	s := NewLocalStoreOn(store.NewMem())
	s.Put(1, "ums|k|hr0", core.Value{Data: []byte("mid"), TS: core.TS(5)}, PutOverwrite)

	s.Absorb([]store.Item{{RingID: 1, Qual: "ums|k|hr0", Val: core.Value{Data: []byte("old"), TS: core.TS(3)}}})
	if v, _ := s.Get(1, "ums|k|hr0"); string(v.Data) != "mid" {
		t.Fatalf("older absorb overwrote: %q", v.Data)
	}
	s.Absorb([]store.Item{{RingID: 1, Qual: "ums|k|hr0", Val: core.Value{Data: []byte("new"), TS: core.TS(9)}}})
	if v, _ := s.Get(1, "ums|k|hr0"); string(v.Data) != "new" || v.TS != core.TS(9) {
		t.Fatalf("newer absorb lost: %v", v)
	}
	if s.Len() != 1 {
		t.Fatalf("collisions created duplicates: len=%d", s.Len())
	}
}

// TestConcurrentPutDuringSnapshot hammers Put while snapshotting (run
// under -race). Every snapshot must be internally consistent: items it
// contains carry a timestamp that was actually written, and absorbing a
// snapshot into a fresh store never fails.
func TestConcurrentPutDuringSnapshot(t *testing.T) {
	s := NewLocalStoreOn(store.NewMem())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rid := core.ID(g*100 + i%50)
				s.Put(rid, "ums|k|hr0", core.Value{TS: core.TS(uint64(i))}, PutIfNewer)
			}
		}(g)
	}
	for round := 0; round < 50; round++ {
		snap := s.Snapshot()
		fresh := NewLocalStoreOn(store.NewMem())
		fresh.Absorb(snap)
		if fresh.Len() != len(snap) {
			t.Fatalf("round %d: absorbed %d of %d snapshot items", round, fresh.Len(), len(snap))
		}
		for _, it := range snap {
			if it.Val.TS.IsZero() {
				t.Fatalf("round %d: snapshot carries unwritten timestamp for %v", round, it.RingID)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestLocalStoreOnWALSurvivesReopen runs the handover layer on a real
// disk backing: puts land in the log, and a second store opened on the
// same directory serves them.
func TestLocalStoreOnWALSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewLocalStoreOn(w)
	s.Put(7, "ums|k|hr0", core.Value{Data: []byte("v"), TS: core.TS(3)}, PutOverwrite)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2 := NewLocalStoreOn(w2)
	if v, ok := s2.Get(7, "ums|k|hr0"); !ok || string(v.Data) != "v" || v.TS != core.TS(3) {
		t.Fatalf("after reopen: %v %v", v, ok)
	}
	// Crash loses nothing that was already on disk but kills the handle.
	s2.Crash()
	if _, ok := s2.Get(7, "ums|k|hr0"); ok {
		t.Fatal("crashed WAL handle still serves reads")
	}
}
