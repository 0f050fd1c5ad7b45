package kts

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestVCSBasics(t *testing.T) {
	v := NewVCS()
	if _, ok := v.Get("missing"); ok {
		t.Fatal("empty VCS returned a counter")
	}
	v.Put("a", core.TS(1))
	v.Put("b", core.TS(2))
	v.Put("a", core.TS(3)) // update, not insert
	if v.Len() != 2 {
		t.Fatalf("len = %d, want 2", v.Len())
	}
	if ts, ok := v.Get("a"); !ok || ts != core.TS(3) {
		t.Fatalf("a = %v, %v", ts, ok)
	}
	if !v.Delete("a") {
		t.Fatal("delete existing failed")
	}
	if v.Delete("a") {
		t.Fatal("delete of missing key reported true")
	}
	if v.Len() != 1 {
		t.Fatalf("len after delete = %d", v.Len())
	}
}

func TestVCSKeysSorted(t *testing.T) {
	v := NewVCS()
	for _, k := range []core.Key{"pear", "apple", "zebra", "mango", "fig"} {
		v.Put(k, core.TS(1))
	}
	keys := v.Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("keys not sorted: %v", keys)
	}
	if len(keys) != 5 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestVCSEachEarlyStop(t *testing.T) {
	v := NewVCS()
	for i := 0; i < 20; i++ {
		v.Put(core.Key(fmt.Sprintf("k%02d", i)), core.TS(uint64(i)))
	}
	visited := 0
	v.Each(func(core.Key, core.Timestamp) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Fatalf("visited %d, want 5", visited)
	}
}

// Property: a VCS behaves exactly like a map under a random operation
// sequence.
func TestVCSMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewVCS()
		model := map[core.Key]core.Timestamp{}
		for op := 0; op < 400; op++ {
			k := core.Key(fmt.Sprintf("key-%d", rng.Intn(60)))
			switch rng.Intn(3) {
			case 0: // put
				ts := core.TS(rng.Uint64())
				v.Put(k, ts)
				model[k] = ts
			case 1: // delete
				_, inModel := model[k]
				if v.Delete(k) != inModel {
					return false
				}
				delete(model, k)
			case 2: // get
				ts, ok := v.Get(k)
				wantTS, wantOK := model[k]
				if ok != wantOK || (ok && ts != wantTS) {
					return false
				}
			}
			if v.Len() != len(model) {
				return false
			}
		}
		// Full contents agree.
		got := map[core.Key]core.Timestamp{}
		v.Each(func(k core.Key, ts core.Timestamp) bool {
			got[k] = ts
			return true
		})
		if len(got) != len(model) {
			return false
		}
		for k, ts := range model {
			if got[k] != ts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
