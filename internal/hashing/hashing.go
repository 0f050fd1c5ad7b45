// Package hashing implements the hash machinery the paper assumes: a set
// H of pairwise independent hash functions over the DHT key space, from
// which the replication set Hr ⊂ H and the timestamping function hts are
// drawn (§3.1, §4.1). It also derives node identifiers for the DHT
// substrates.
//
// The family is Salted: SHA-1 with a per-function salt, which maps
// application keys to well-spread 64-bit ring positions (core.ID).
package hashing

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"

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

// NodeID derives a ring identifier for a peer from its address, the way
// Chord hashes IP:port pairs.
func NodeID(addr string) core.ID {
	return Salted{Salt: "node"}.ID(core.Key(addr))
}
