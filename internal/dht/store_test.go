package dht

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

func ts(v uint64) core.Timestamp { return core.TS(v) }

func val(s string, v uint64) core.Value {
	return core.Value{Data: []byte(s), TS: ts(v)}
}

// TestParseQualifier checks the round trip the repair subsystem depends
// on, including keys that themselves contain the separator.
func TestParseQualifier(t *testing.T) {
	for _, k := range []core.Key{"plain", "with|pipe", "a|b|c", ""} {
		q := Qualifier("ums", k, "hr3")
		ns, key, hname, ok := ParseQualifier(q)
		if !ok || ns != "ums" || key != k || hname != "hr3" {
			t.Fatalf("ParseQualifier(%q) = %q %q %q %v", q, ns, key, hname, ok)
		}
	}
	for _, bad := range []string{"", "nopipe", "one|pipe"} {
		if _, _, _, ok := ParseQualifier(bad); ok {
			t.Fatalf("ParseQualifier(%q) unexpectedly ok", bad)
		}
	}
}

// TestCollectIfSelectsAndRemoves covers the handover collection path: only
// items matching the predicate are returned, removal is honored, and the
// returned items do not alias the store's buffers.
func TestCollectIfSelectsAndRemoves(t *testing.T) {
	s := NewLocalStore()
	for i := 0; i < 10; i++ {
		s.Put(core.ID(i), fmt.Sprintf("ums|k%d|hr0", i), val(fmt.Sprintf("v%d", i), 1), PutOverwrite)
	}
	even := func(id core.ID) bool { return id%2 == 0 }

	// Non-destructive collection (a join's Transfer keeps going on error).
	peek := s.CollectIf(even, false)
	if len(peek) != 5 || s.Len() != 10 {
		t.Fatalf("peek collected %d, store has %d", len(peek), s.Len())
	}
	// Mutating a collected item must not corrupt the store.
	peek[0].Val.Data[0] = 'X'
	for _, it := range s.CollectIf(even, false) {
		if it.Val.Data[0] == 'X' {
			t.Fatal("collected item aliases the stored buffer")
		}
	}

	// Destructive collection (the ceding side of a handover).
	got := s.CollectIf(even, true)
	if len(got) != 5 || s.Len() != 5 {
		t.Fatalf("collected %d, store kept %d", len(got), s.Len())
	}
	for _, it := range got {
		if it.RingID%2 != 0 {
			t.Fatalf("collected non-matching item %v", it.RingID)
		}
		if _, ok := s.Get(it.RingID, it.Qual); ok {
			t.Fatalf("item %v still present after destructive collect", it.RingID)
		}
	}
	// The odd half must be untouched.
	for i := 1; i < 10; i += 2 {
		if _, ok := s.Get(core.ID(i), fmt.Sprintf("ums|k%d|hr0", i)); !ok {
			t.Fatalf("unrelated item %d lost", i)
		}
	}
}

// TestAbsorbNewerWins covers the qualifier-collision invariant: a replica
// must never travel backwards in time when handover batches land on a
// store that already has newer data (e.g. an update raced the transfer).
func TestAbsorbNewerWins(t *testing.T) {
	s := NewLocalStore()
	s.Put(1, "ums|k|hr0", val("newer", 5), PutOverwrite)

	s.Absorb([]store.Item{
		{RingID: 1, Qual: "ums|k|hr0", Val: val("stale", 3)},  // must lose
		{RingID: 1, Qual: "ums|k|hr1", Val: val("fresh", 4)},  // new qualifier, installs
		{RingID: 2, Qual: "ums|k2|hr0", Val: val("other", 1)}, // new position, installs
	})

	if v, _ := s.Get(1, "ums|k|hr0"); string(v.Data) != "newer" || v.TS != ts(5) {
		t.Fatalf("absorb regressed the replica to %q %v", v.Data, v.TS)
	}
	if v, ok := s.Get(1, "ums|k|hr1"); !ok || string(v.Data) != "fresh" {
		t.Fatalf("absorb dropped a non-colliding item: %q", v.Data)
	}
	if _, ok := s.Get(2, "ums|k2|hr0"); !ok {
		t.Fatal("absorb dropped a new position")
	}

	// The other direction: absorbing newer state overwrites older.
	s.Absorb([]store.Item{{RingID: 1, Qual: "ums|k|hr0", Val: val("newest", 9)}})
	if v, _ := s.Get(1, "ums|k|hr0"); string(v.Data) != "newest" {
		t.Fatalf("absorb failed to advance the replica: %q", v.Data)
	}
}

// TestCollectRoundTripPreservesState replays a full handover: collect an
// arc destructively, absorb it elsewhere, and verify nothing was lost or
// duplicated.
func TestCollectRoundTripPreservesState(t *testing.T) {
	from, to := NewLocalStore(), NewLocalStore()
	for i := 0; i < 20; i++ {
		from.Put(core.ID(i), fmt.Sprintf("ums|k%d|hr0", i), val(fmt.Sprintf("v%d", i), uint64(i+1)), PutOverwrite)
	}
	arc := func(id core.ID) bool { return id < 10 }
	to.Absorb(from.CollectIf(arc, true))
	if from.Len() != 10 || to.Len() != 10 {
		t.Fatalf("after handover: from=%d to=%d", from.Len(), to.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := to.Get(core.ID(i), fmt.Sprintf("ums|k%d|hr0", i))
		if !ok || string(v.Data) != fmt.Sprintf("v%d", i) {
			t.Fatalf("item %d mangled in flight: ok=%v %q", i, ok, v.Data)
		}
	}
}

// TestConcurrentPutDuringCollect hammers the store with writes while a
// collector repeatedly drains an arc — the shape of a Put racing a
// responsibility handover. Run under -race this guards the locking; the
// assertion guards that every written item ends up exactly one place:
// collected or still stored.
func TestConcurrentPutDuringCollect(t *testing.T) {
	s := NewLocalStore()
	const writers, perWriter = 4, 200
	arc := func(id core.ID) bool { return id%2 == 0 }

	var collected []store.Item
	stop := make(chan struct{})
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for {
			collected = append(collected, s.CollectIf(arc, true)...)
			select {
			case <-stop:
				// One final drain now that the writers are done.
				collected = append(collected, s.CollectIf(arc, true)...)
				return
			default:
			}
		}
	}()

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				id := core.ID(w*perWriter + i)
				s.Put(id, fmt.Sprintf("ums|w%d-%d|hr0", w, i), val("payload", uint64(i+1)), PutIfNewer)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	<-collectorDone

	// Every even-id item must be in collected exactly once; every odd-id
	// item must still be in the store.
	seen := map[string]int{}
	for _, it := range collected {
		if it.RingID%2 != 0 {
			t.Fatalf("collector got non-arc item %v", it.RingID)
		}
		seen[it.Qual]++
	}
	total := writers * perWriter
	inStore := s.Len()
	if len(seen)+inStore != total {
		t.Fatalf("items lost or duplicated: collected %d distinct + stored %d != %d",
			len(seen), inStore, total)
	}
	for q, n := range seen {
		if n != 1 {
			t.Fatalf("item %q collected %d times", q, n)
		}
	}
}
