// Package hashing implements the hash machinery the paper assumes: a set
// H of pairwise independent hash functions over the DHT key space, from
// which the replication set Hr ⊂ H and the timestamping function hts are
// drawn (§3.1, §4.1). It also derives node identifiers for the DHT
// substrates.
//
// Two families are provided:
//
//   - Universal: the classic pairwise-independent construction
//     h(x) = ((a·x + b) mod p) over the Mersenne prime p = 2^61 - 1
//     (Luby, "Pseudorandomness and Cryptographic Applications", the
//     paper's reference [15]); and
//   - Salted: SHA-1 with a per-function salt, the pragmatic choice for
//     well-spread ring positions, used as the default.
//
// Both map application keys to 64-bit ring positions (core.ID).
package hashing

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/core"
)

// Func is one hash function h ∈ H: it maps an application key to a ring
// position. rsp(k, h) is then the peer responsible for h.ID(k).
type Func interface {
	// ID returns the ring position for key k.
	ID(k core.Key) core.ID
	// Name identifies the function; replica storage is namespaced by it
	// so the same key replicated under different functions never
	// collides on a peer that happens to be responsible for several.
	Name() string
}

// mersenne61 is the prime modulus for the universal family.
const mersenne61 = (1 << 61) - 1

// fingerprint folds an application key into a 64-bit integer input for
// the arithmetic family (FNV-1a; only used as the x in a·x+b, the
// pairwise independence comes from the random a, b).
func fingerprint(k core.Key) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime
	}
	return h
}

// mulMod61 computes (a * b) mod (2^61 - 1) using 128-bit intermediate
// arithmetic and Mersenne folding.
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi·2^64 + lo = hi·8·2^61 + lo ≡ hi·8 + lo (mod 2^61-1) after
	// folding each part down.
	r := fold61(lo) + fold61(hi*8)
	return fold61(r)
}

// fold61 reduces x modulo 2^61-1 (x < 2^63 keeps the sum in range).
func fold61(x uint64) uint64 {
	x = (x >> 61) + (x & mersenne61)
	if x >= mersenne61 {
		x -= mersenne61
	}
	return x
}

// Universal is one member of the pairwise-independent family
// h(x) = ((a·x + b) mod p) with 1 <= a < p, 0 <= b < p.
type Universal struct {
	A, B uint64
	Tag  string
}

// ID maps the key to a 64-bit ring position. The arithmetic yields a
// value in [0, 2^61-1); it is spread over the full 64-bit ring by a
// left shift of 3 (the low bits are refilled from the product so the ring
// remains well covered).
func (u Universal) ID(k core.Key) core.ID {
	x := fold61(fingerprint(k))
	v := fold61(mulMod61(u.A, x) + u.B)
	return core.ID(v<<3 | v>>58)
}

// Name implements Func.
func (u Universal) Name() string { return u.Tag }

// NewUniversalFamily draws n pairwise-independent functions from the
// universal family using the given seed. Functions drawn with the same
// seed are identical across runs.
func NewUniversalFamily(seed int64, n int) []Func {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]Func, n)
	for i := range fs {
		a := uint64(rng.Int63n(mersenne61-1)) + 1 // a ∈ [1, p)
		b := uint64(rng.Int63n(mersenne61))       // b ∈ [0, p)
		fs[i] = Universal{A: a, B: b, Tag: fmt.Sprintf("u%d", i)}
	}
	return fs
}

// Salted hashes with SHA-1 over a salt prefix. Distinct salts give
// effectively independent functions with excellent spread.
type Salted struct {
	Salt string
}

// ID implements Func: the first 8 bytes of SHA-1(salt ‖ 0 ‖ k). The
// input is assembled on the stack, so a key of up to about 50 bytes is
// hashed without a heap allocation — an ID is computed on every probe
// and every guess of an owner.
func (s Salted) ID(k core.Key) core.ID {
	var buf [64]byte
	sum := sha1.Sum(append(append(append(buf[:0], s.Salt...), 0), k...))
	return core.ID(binary.BigEndian.Uint64(sum[:8]))
}

// Name implements Func.
func (s Salted) Name() string { return s.Salt }

// NewSaltedFamily builds n salted SHA-1 functions with the given prefix,
// e.g. prefix "hr" yields hr0..hr(n-1).
func NewSaltedFamily(prefix string, n int) []Func {
	fs := make([]Func, n)
	for i := range fs {
		fs[i] = Salted{Salt: fmt.Sprintf("%s%d", prefix, i)}
	}
	return fs
}

// Set bundles the hash functions one deployment uses: the replication
// functions Hr and the timestamping function hts. All peers must agree on
// the Set (it is part of the deployment configuration, like the DHT's
// own hash function).
type Set struct {
	// Hr are the replication hash functions; |Hr| is the replication
	// factor (Table 1 default: 10).
	Hr []Func
	// HTS is the timestamping hash function (§4.1.1).
	HTS Func
}

// NewSet builds the default (salted) hash set with nr replication
// functions.
func NewSet(nr int) Set {
	return Set{
		Hr:  NewSaltedFamily("hr", nr),
		HTS: Salted{Salt: "hts"},
	}
}

// NewUniversalSet builds a hash set from the arithmetic universal family,
// as the paper's reference [15] constructs it.
func NewUniversalSet(seed int64, nr int) Set {
	fam := NewUniversalFamily(seed, nr+1)
	return Set{Hr: fam[:nr], HTS: fam[nr]}
}

// NodeID derives a ring identifier for a peer from its address, the way
// Chord hashes IP:port pairs.
func NodeID(addr string) core.ID {
	return Salted{Salt: "node"}.ID(core.Key(addr))
}
