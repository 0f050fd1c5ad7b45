package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// TestCounterBasics: every backend reads back the counter it was last
// given, forgets a deleted one, and a dead handle serves nothing — a
// depot's retained slot, reopened, serves it again.
func TestCounterBasics(t *testing.T) {
	depot := NewDepot()
	for _, b := range []struct {
		name string
		open func() Store
	}{
		{"mem", func() Store { return NewMem() }},
		{"wal", func() Store { return openT(t, t.TempDir(), WALOptions{}) }},
		{"depot", func() Store { return depot.Open("peer") }},
	} {
		name := b.name
		t.Run(name, func(t *testing.T) {
			s := b.open()
			if _, ok := s.GetCounter("missing"); ok {
				t.Fatal("empty store returned a counter")
			}
			s.PutCounter("a", core.TS(1))
			s.PutCounter("b", core.TS(2))
			s.PutCounter("a", core.TS(3)) // update, not insert
			if ts, ok := s.GetCounter("a"); !ok || ts != core.TS(3) {
				t.Fatalf("a = %v, %v; want ts(3)", ts, ok)
			}
			s.DeleteCounter("b")
			if ts, ok := s.GetCounter("b"); ok {
				t.Fatalf("deleted b reads %v", ts)
			}
			if n := len(s.Counters()); n != 1 {
				t.Fatalf("%d counters, want 1", n)
			}
			if name == "mem" {
				return // a crashed Mem is simply empty, like a new one
			}
			s.Crash()
			if ts, ok := s.GetCounter("a"); ok {
				t.Fatalf("crashed handle reads a = %v", ts)
			}
			if name == "depot" {
				if ts, ok := depot.Open("peer").GetCounter("a"); !ok || ts != core.TS(3) {
					t.Fatalf("reopened depot slot reads a = %v, %v; want ts(3)", ts, ok)
				}
			}
		})
	}
}

// TestMemCountersMatchMapModel: property — under a random sequence of
// puts, deletes and reads, Mem's counters behave exactly like a map.
func TestMemCountersMatchMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMem()
		model := map[core.Key]core.Timestamp{}
		for op := 0; op < 400; op++ {
			k := core.Key(fmt.Sprintf("key-%d", rng.Intn(60)))
			switch rng.Intn(3) {
			case 0:
				ts := core.TS(rng.Uint64())
				m.PutCounter(k, ts)
				model[k] = ts
			case 1:
				m.DeleteCounter(k)
				delete(model, k)
			case 2:
				ts, ok := m.GetCounter(k)
				want, wantOK := model[k]
				if ok != wantOK || ts != want {
					return false
				}
			}
		}
		cs := m.Counters()
		if len(cs) != len(model) {
			return false
		}
		for _, c := range cs {
			if model[c.Key] != c.TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
