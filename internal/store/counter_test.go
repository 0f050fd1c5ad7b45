package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// opener opens a store on fresh media. reopen opens the same media
// again, and is nil for NewMem, whose media is the handle itself.
type opener struct {
	name string
	open func(t *testing.T) (s *Store, reopen func() *Store)
}

// openers lists the three ways to open a store. The WAL syncs every
// append and compacts often, so a crash keeps every write and the model
// test replays a snapshot as well as a log.
func openers() []opener {
	return []opener{
		{"mem", func(*testing.T) (*Store, func() *Store) { return NewMem(), nil }},
		{"depot", func(*testing.T) (*Store, func() *Store) {
			d := NewDepot()
			return d.Open("peer"), func() *Store { return d.Open("peer") }
		}},
		{"wal", func(t *testing.T) (*Store, func() *Store) {
			dir, opt := t.TempDir(), WALOptions{Policy: SyncAlways, CompactEvery: 64}
			return openT(t, dir, opt), func() *Store { return openT(t, dir, opt) }
		}},
	}
}

// TestCounterBasics: every way to open a store reads back the counter
// it was last given, forgets a deleted one, and a dead handle serves
// nothing — a depot's retained slot, reopened, serves it again.
func TestCounterBasics(t *testing.T) {
	for _, o := range openers() {
		t.Run(o.name, func(t *testing.T) {
			s, reopen := o.open(t)
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
			s.Crash()
			if ts, ok := s.GetCounter("a"); ok {
				t.Fatalf("crashed handle reads a = %v", ts)
			}
			if reopen != nil {
				r := reopen()
				defer r.Close()
				if ts, ok := r.GetCounter("a"); !ok || ts != core.TS(3) {
					t.Fatalf("reopened store reads a = %v, %v; want ts(3)", ts, ok)
				}
			}
		})
	}
}

// itemKey addresses one stored item.
type itemKey struct {
	rid  core.ID
	qual string
}

// model is a store's expected contents.
type model struct {
	items    map[itemKey]core.Value
	counters map[core.Key]core.Timestamp
}

// contents reads everything s serves, in model form.
func contents(s *Store) model {
	m := model{items: map[itemKey]core.Value{}, counters: map[core.Key]core.Timestamp{}}
	s.EachItem(func(it Item) bool {
		m.items[itemKey{it.RingID, it.Qual}] = it.Val
		return true
	})
	for _, c := range s.Counters() {
		m.counters[c.Key] = c.TS
	}
	return m
}

// TestStoresMatchMapModel: property — under a seeded random sequence of
// item and counter puts, deletes and reads, each way to open a store
// behaves exactly like a pair of maps. Crashing the handle then leaves
// it reading nothing and refusing every write with ErrStore, and
// reopening durable media serves exactly the pre-crash state.
func TestStoresMatchMapModel(t *testing.T) {
	for _, o := range openers() {
		t.Run(o.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				if err := checkModel(t, o, seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func checkModel(t *testing.T, o opener, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	s, reopen := o.open(t)
	want := model{items: map[itemKey]core.Value{}, counters: map[core.Key]core.Timestamp{}}
	for op := 0; op < 150; op++ {
		ik := itemKey{core.ID(rng.Intn(8)), fmt.Sprintf("q%d", rng.Intn(4))}
		k := core.Key(fmt.Sprintf("key-%d", rng.Intn(20)))
		var err error
		switch rng.Intn(6) {
		case 0:
			v := core.Value{Data: []byte(fmt.Sprintf("v%d", op)), TS: core.TS(rng.Uint64())}
			err = s.PutItem(Item{RingID: ik.rid, Qual: ik.qual, Val: v})
			want.items[ik] = v
		case 1:
			err = s.DeleteItem(ik.rid, ik.qual)
			delete(want.items, ik)
		case 2:
			ts := core.TS(rng.Uint64())
			err = s.PutCounter(k, ts)
			want.counters[k] = ts
		case 3:
			err = s.DeleteCounter(k)
			delete(want.counters, k)
		case 4:
			v, ok := s.GetItem(ik.rid, ik.qual)
			if w, wok := want.items[ik]; ok != wok || !reflect.DeepEqual(v, w) {
				return fmt.Errorf("op %d: item %v = %v, %v; want %v, %v", op, ik, v, ok, w, wok)
			}
		case 5:
			ts, ok := s.GetCounter(k)
			if w, wok := want.counters[k]; ok != wok || ts != w {
				return fmt.Errorf("op %d: counter %q = %v, %v; want %v, %v", op, k, ts, ok, w, wok)
			}
		}
		if err != nil {
			return fmt.Errorf("op %d: %v", op, err)
		}
	}
	if got := contents(s); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("live contents %v, want %v", got, want)
	}
	if n := s.ItemCount(); n != len(want.items) {
		return fmt.Errorf("ItemCount = %d, want %d", n, len(want.items))
	}

	s.Crash()
	if got := contents(s); len(got.items) != 0 || len(got.counters) != 0 || s.ItemCount() != 0 {
		return fmt.Errorf("crashed handle reads %v", got)
	}
	for ik := range want.items {
		if v, ok := s.GetItem(ik.rid, ik.qual); ok {
			return fmt.Errorf("crashed handle reads item %v = %v", ik, v)
		}
	}
	for k := range want.counters {
		if ts, ok := s.GetCounter(k); ok {
			return fmt.Errorf("crashed handle reads counter %q = %v", k, ts)
		}
	}
	for i, err := range []error{
		s.PutItem(Item{RingID: 1, Qual: "q0"}),
		s.DeleteItem(1, "q0"),
		s.PutCounter("key-0", core.TS(1)),
		s.DeleteCounter("key-0"),
	} {
		if !errors.Is(err, ErrStore) {
			return fmt.Errorf("write %d after crash: err = %v, want ErrStore", i, err)
		}
	}
	if reopen == nil {
		return nil
	}
	r := reopen()
	defer r.Close()
	if got := contents(r); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("reopened contents %v, want %v", got, want)
	}
	return nil
}
