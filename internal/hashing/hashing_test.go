package hashing

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

func TestDeterminism(t *testing.T) {
	f := Salted{Salt: "x"}
	if a, b := f.ID("some-key"), f.ID("some-key"); a != b {
		t.Fatalf("%s: not deterministic: %v vs %v", f.Name(), a, b)
	}
}

// TestSaltedIDIsSHA1: a salted ID is the first 8 bytes of
// SHA-1(salt ‖ 0 ‖ k), as a streaming digest computes it, for keys that
// fit the stack buffer and keys that do not; a short key's costs no
// allocation.
func TestSaltedIDIsSHA1(t *testing.T) {
	f := Salted{Salt: "hr3"}
	for _, k := range []core.Key{"", "k", "some-key-0042", core.Key(fmt.Sprintf("%0200d", 7))} {
		h := sha1.New()
		h.Write([]byte(f.Salt + "\x00" + string(k)))
		if want := core.ID(binary.BigEndian.Uint64(h.Sum(nil))); f.ID(k) != want {
			t.Errorf("ID(%d-byte key) = %v, want %v", len(k), f.ID(k), want)
		}
	}
	var sink core.ID
	if n := testing.AllocsPerRun(100, func() { sink = f.ID("some-key-0042") }); n != 0 {
		t.Errorf("ID allocates %v times per call, want 0", n)
	}
	_ = sink
}

func TestFamiliesDiffer(t *testing.T) {
	set := NewSet(10)
	key := core.Key("agenda:room-12")
	seen := map[core.ID]string{}
	for _, f := range set.Hr {
		id := f.ID(key)
		if prev, dup := seen[id]; dup {
			t.Fatalf("functions %s and %s collide on %q", prev, f.Name(), key)
		}
		seen[id] = f.Name()
	}
	if _, dup := seen[set.HTS.ID(key)]; dup {
		t.Fatalf("hts collides with a replication function on %q", key)
	}
}

func TestFamilyNamesUnique(t *testing.T) {
	names := map[string]bool{}
	for _, f := range NewSaltedFamily("hr", 30) {
		if names[f.Name()] {
			t.Fatalf("duplicate name %q", f.Name())
		}
		names[f.Name()] = true
	}
}

// Spread: hashing many keys must fill the 64-bit ring roughly uniformly.
// We check that each of 16 equal ring sectors receives a sensible share.
func testSpread(t *testing.T, f Func) {
	t.Helper()
	const n = 32768
	const sectors = 16
	counts := make([]int, sectors)
	for i := 0; i < n; i++ {
		id := f.ID(core.Key(fmt.Sprintf("key-%d", i)))
		counts[uint64(id)>>60]++
	}
	want := float64(n) / sectors
	for s, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Fatalf("%s: sector %d has %d keys, want ~%.0f", f.Name(), s, c, want)
		}
	}
}

func TestSaltedSpread(t *testing.T) { testSpread(t, Salted{Salt: "spread"}) }

// Pairwise independence smoke test: for two members of the salted
// family, the joint distribution of (h1(x) bucket, h2(x) bucket) over
// many keys should be close to the product of the marginals.
func TestSaltedPairwiseBuckets(t *testing.T) {
	fam := NewSaltedFamily("hr", 2)
	const n = 65536
	const b = 4
	joint := [b][b]int{}
	for i := 0; i < n; i++ {
		k := core.Key(fmt.Sprintf("pk-%d", i))
		x := uint64(fam[0].ID(k)) >> 62
		y := uint64(fam[1].ID(k)) >> 62
		joint[x][y]++
	}
	want := float64(n) / (b * b)
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			if math.Abs(float64(joint[i][j])-want) > want*0.2 {
				t.Fatalf("joint bucket (%d,%d) = %d, want ~%.0f", i, j, joint[i][j], want)
			}
		}
	}
}

func TestNodeIDDistinct(t *testing.T) {
	ids := map[core.ID]bool{}
	for i := 0; i < 1000; i++ {
		id := NodeID(fmt.Sprintf("10.0.0.%d:%d", i%256, 4000+i))
		if ids[id] {
			t.Fatalf("node id collision at %d", i)
		}
		ids[id] = true
	}
}
