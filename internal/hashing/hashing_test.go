package hashing

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestDeterminism(t *testing.T) {
	for _, f := range []Func{
		Salted{Salt: "x"},
		Universal{A: 12345, B: 6789, Tag: "u"},
	} {
		a := f.ID("some-key")
		b := f.ID("some-key")
		if a != b {
			t.Fatalf("%s: not deterministic: %v vs %v", f.Name(), a, b)
		}
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
	for _, fs := range [][]Func{
		NewSaltedFamily("hr", 30),
		NewUniversalFamily(7, 30),
	} {
		names := map[string]bool{}
		for _, f := range fs {
			if names[f.Name()] {
				t.Fatalf("duplicate name %q", f.Name())
			}
			names[f.Name()] = true
		}
	}
}

func TestUniversalFamilySeeded(t *testing.T) {
	a := NewUniversalFamily(42, 5)
	b := NewUniversalFamily(42, 5)
	for i := range a {
		if a[i].(Universal) != b[i].(Universal) {
			t.Fatalf("same seed must give identical family members at %d", i)
		}
	}
	c := NewUniversalFamily(43, 5)
	same := true
	for i := range a {
		if a[i].(Universal) != c[i].(Universal) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different families")
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

func TestSaltedSpread(t *testing.T)    { testSpread(t, Salted{Salt: "spread"}) }
func TestUniversalSpread(t *testing.T) { testSpread(t, NewUniversalFamily(9, 1)[0]) }

// Pairwise independence smoke test: for two random members of the
// universal family, the joint distribution of (h1(x) bucket, h2(x)
// bucket) over many keys should be close to the product of the marginals.
func TestUniversalPairwiseBuckets(t *testing.T) {
	fam := NewUniversalFamily(11, 2)
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

func TestMulMod61(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 12345, 0},
		{1, mersenne61 - 1, mersenne61 - 1},
		{2, mersenne61 - 1, mersenne61 - 2}, // 2(p-1) = 2p-2 ≡ p-2
		{mersenne61 - 1, mersenne61 - 1, 1}, // (p-1)^2 ≡ 1
	}
	for _, c := range cases {
		if got := mulMod61(c.a, c.b); got != c.want {
			t.Fatalf("mulMod61(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: mulMod61 agrees with big-integer arithmetic emulated via
// repeated folding for in-range operands, and stays in range.
func TestMulMod61InRange(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= mersenne61
		b %= mersenne61
		got := mulMod61(a, b)
		return got < mersenne61
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// Property: mulMod61 is commutative and distributes over addition mod p.
func TestMulMod61Algebra(t *testing.T) {
	f := func(a, b, c uint64) bool {
		a %= mersenne61
		b %= mersenne61
		c %= mersenne61
		if mulMod61(a, b) != mulMod61(b, a) {
			return false
		}
		left := mulMod61(a, fold61(b+c))
		right := fold61(mulMod61(a, b) + mulMod61(a, c))
		return left == right
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
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

func TestNewUniversalSetSizes(t *testing.T) {
	set := NewUniversalSet(3, 13)
	if len(set.Hr) != 13 {
		t.Fatalf("|Hr| = %d", len(set.Hr))
	}
	if set.HTS == nil {
		t.Fatal("missing hts")
	}
}
