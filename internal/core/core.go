// Package core defines the shared model vocabulary for the Congested
// Clique simulator that reproduces Dory & Parter (PODC 2020): node
// identifiers, round counters, and the message width WordBits that
// fixes the per-link bandwidth budget B = O(log n) bits the model
// imposes on every directed link in every synchronous round.
//
// The Congested Clique is a fully connected synchronous message-passing
// network of n nodes. In each round every ordered pair of nodes may
// exchange at most B = O(log n) bits. All higher layers (the round
// engine in internal/engine, the matrix subsystem in internal/matmul,
// and the algorithms in internal/algo) speak in terms of these types so
// that the bandwidth accounting is uniform.
//
// The package also defines the Semiring vocabulary (semiring.go): the
// (min,+) distance product and the boolean (or,and) reachability
// product that parameterize the sparse matrix machinery of the
// Dory-Parter pipeline.
package core

import "math/bits"

// NodeID identifies a node in the clique. IDs are dense in [0, n).
type NodeID int32

// Round is a zero-based synchronous round counter.
type Round int32

// WordBits is the payload width of a single simulator message. A 64-bit
// machine word is Theta(log n) bits for every feasible n (n <= 2^64),
// so "one word per link per round" is the standard concrete reading of
// the O(log n)-bits-per-link Congested Clique budget. The simulator
// fixes every directed link at exactly that capacity: one message per
// round.
const WordBits = 64

// Log2Ceil returns ceil(log2(n)) for n >= 1, and 0 for n <= 1. It is
// the bit length of n-1, which is the number of bits needed to address
// one of n distinct values — the unit in which Congested Clique
// bandwidth budgets are stated. Algorithm layers that pack node IDs
// into message words (e.g. the Dory-Parter sparse matrix routing
// stages) size their bit fields with it.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
