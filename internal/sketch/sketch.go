// Package sketch implements the term sketches behind the selective
// multicast of §3.3: small Bloom filters summarising which content terms a
// mailbox store (or a whole backbone subtree) might hold. A store keeps a
// *counting* filter so drains and evictions subtract exactly; the broadcast
// layer works with immutable bit snapshots, which are cheap to OR together
// when a node folds its children's summaries into the subtree sketch cached
// at its parent edge.
//
// The contract is strictly one-sided: a snapshot's MayContain never returns
// false for a term that was Added and not Removed. False positives are
// expected (and measured by the package tests); false negatives are a bug.
// Everything that consults a sketch must therefore treat "maybe" as "visit"
// and only "definitely not" as permission to prune.
package sketch

import (
	"hash/fnv"
	"math"
)

// Default geometry. 4096 bits × 3 hashes holds the ~hundreds of live terms
// a store sees between retrieval sweeps at ≈1–2% false positives, and a
// 64-server subtree OR stays well under saturation because stores carry
// disjoint slices of the same few distribution terms.
const (
	// DefaultBits is the filter width in bits. Must be a power of two so
	// indexing reduces to a mask.
	DefaultBits = 4096
	// DefaultHashes is k, the number of probe positions per term.
	DefaultHashes = 3
)

// hashPair derives the double-hashing base pair from FNV-1a 64. Probe i
// lands at (h1 + i·h2) mod m; forcing h2 odd keeps the stride coprime with
// the power-of-two width so the k probes stay distinct.
func hashPair(term string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(term))
	h1 := h.Sum64()
	h2 := (h1 >> 33) | 1
	return h1, h2
}

// Counting is a counting Bloom filter: each slot is a uint16 refcount so
// Remove can subtract what Add contributed. It is not safe for concurrent
// use; the mailbox store mutates it under its shard lock.
type Counting struct {
	counts []uint16
	hashes int
}

// NewCounting returns an empty counting filter with the package-default
// geometry. All filters that will ever be ORed together must share one
// geometry; using the defaults everywhere guarantees that.
func NewCounting() *Counting {
	return &Counting{counts: make([]uint16, DefaultBits), hashes: DefaultHashes}
}

// Add records one reference to term.
func (c *Counting) Add(term string) {
	h1, h2 := hashPair(term)
	mask := uint64(len(c.counts) - 1)
	for i := 0; i < c.hashes; i++ {
		at := (h1 + uint64(i)*h2) & mask
		if c.counts[at] == math.MaxUint16 {
			continue // saturated: see Remove
		}
		c.counts[at]++
	}
}

// Remove drops one reference to term. Removing a term that was never Added
// is a caller bug; the filter clamps at zero rather than wrapping.
func (c *Counting) Remove(term string) {
	h1, h2 := hashPair(term)
	mask := uint64(len(c.counts) - 1)
	for i := 0; i < c.hashes; i++ {
		at := (h1 + uint64(i)*h2) & mask
		switch c.counts[at] {
		case 0:
			// Clamp: better a stale bit elsewhere than a wrapped counter
			// that erases live terms.
		case math.MaxUint16:
			// A saturated slot can no longer be decremented reliably, so
			// it stays set forever — an over-approximation, which is the
			// safe side of the contract.
		default:
			c.counts[at]--
		}
	}
}

// OrInto sets in f every bit whose slot counts a reference, folding the
// filter's current occupancy into an aggregate without a filter of its own.
// f must share the package geometry, as Or requires.
func (c *Counting) OrInto(f *Filter) {
	for at, n := range c.counts {
		if n > 0 {
			f.words[at>>6] |= 1 << (uint(at) & 63)
		}
	}
}

// Filter is a plain Bloom bit set. Unlike Counting it supports Or, making
// it the currency of the broadcast layer's subtree aggregation. The zero
// value is not usable; construct with NewFilter and fill it with Add or
// Counting.OrInto.
type Filter struct {
	words  []uint64
	hashes int
}

// NewFilter returns an empty filter with the package-default geometry.
func NewFilter() *Filter {
	return &Filter{words: make([]uint64, DefaultBits/64), hashes: DefaultHashes}
}

// Reset clears every bit: an empty filter of the same geometry, to refill.
func (f *Filter) Reset() { clear(f.words) }

// Add sets term's bits. Mostly useful in tests; production filters are
// filled by Counting.OrInto.
func (f *Filter) Add(term string) {
	h1, h2 := hashPair(term)
	mask := uint64(len(f.words)*64 - 1)
	for i := 0; i < f.hashes; i++ {
		at := (h1 + uint64(i)*h2) & mask
		f.words[at>>6] |= 1 << (at & 63)
	}
}

// MayContain reports whether term might be present; false is a proof of
// absence.
func (f *Filter) MayContain(term string) bool {
	h1, h2 := hashPair(term)
	mask := uint64(len(f.words)*64 - 1)
	for i := 0; i < f.hashes; i++ {
		at := (h1 + uint64(i)*h2) & mask
		if f.words[at>>6]&(1<<(at&63)) == 0 {
			return false
		}
	}
	return true
}

// Or folds other into f. Both sides must share one geometry — the package
// constructs every filter with the defaults, so a mismatch is a programmer
// error and panics.
func (f *Filter) Or(other *Filter) {
	if other == nil {
		return
	}
	if len(other.words) != len(f.words) || other.hashes != f.hashes {
		panic("sketch: Or on mismatched filter geometry")
	}
	for i, w := range other.words {
		f.words[i] |= w
	}
}

// NormalizeTerm canonicalises a query pattern into the token form the
// mailbox store's term index uses: lowercase ASCII alphanumeric runs,
// length 2..32. It returns false when the pattern is not a single plain
// token (embedded punctuation, spaces, too short/long) — such predicates
// cannot be checked against a sketch and must take the unpruned path.
func NormalizeTerm(s string) (string, bool) {
	const minLen, maxLen = 2, 32
	if len(s) < minLen || len(s) > maxLen {
		return "", false
	}
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out[i] = c
		case c >= 'A' && c <= 'Z':
			out[i] = c + ('a' - 'A')
		default:
			return "", false
		}
	}
	return string(out), true
}
