package core

import (
	"fmt"
	"math"
)

// InfWeight is the +infinity sentinel for path weights: the additive
// identity ("no entry") of the (min,+) semiring. It is set to
// math.MaxInt64/4 rather than MaxInt64 so that the sum of two finite
// weights, or Inf plus a finite weight computed before saturation is
// applied, can never overflow int64.
const InfWeight int64 = math.MaxInt64 / 4

// InfWidth is the +infinity sentinel for bottleneck widths: the
// multiplicative identity of the (max,min) semiring (the width of the
// empty path is unbounded). It is never transmitted as a value — the
// matmul wire format reserves a field code for the semiring's One — so
// its magnitude only has to leave headroom above every legal edge
// width, which must lie in [1, InfWidth).
const InfWidth int64 = 1 << 40

// Semiring is a commutative semiring over int64 entries, the algebraic
// parameter of the sparse matrix subsystem (internal/matmul). A matrix
// product over (Add, Mul) is C[i][j] = Add_k Mul(A[i][k], B[k][j]);
// instantiating Add=min, Mul=+ yields the distance product at the heart
// of the Dory-Parter shortest-path pipeline, and Add=or, Mul=and yields
// boolean reachability.
//
// Zero is the additive identity and doubles as the "absent entry"
// sentinel: sparse matrices never store Zero entries, and Add(Zero, x)
// must equal x. One is the multiplicative identity, used for the
// diagonal of reflexive (identity-including) matrices.
type Semiring struct {
	// Name identifies the semiring in reports and error messages.
	Name string
	// Zero is the additive identity / absent-entry sentinel.
	Zero int64
	// One is the multiplicative identity.
	One int64

	add func(a, b int64) int64
	mul func(a, b int64) int64
	// edgeValue maps one graph arc to its matrix entry; see EdgeValue.
	edgeValue func(w int64, weighted bool) int64
	kind      SemiringKind
}

// SemiringKind names the operation pair of a semiring this package
// defines, so a hot loop can ask once which pair it is running and
// write Add and Mul inline instead of calling them per entry.
type SemiringKind uint8

// The kinds, one per constructor. KindGeneric, the zero value, makes no
// promise about the operations: callers must go through Add and Mul.
const (
	KindGeneric   SemiringKind = iota
	KindMinPlus                // Add = min, Mul = + saturating at InfWeight
	KindMaxMin                 // Add = max, Mul = min
	KindBoolOrAnd              // Add = |, Mul = &
)

// Kind reports which operation pair the semiring is — the same
// "semantics live with the semiring" contract as EdgeValue: code that
// specialises on the operations (matmul's decode loops) switches on
// Kind, not on Name, and treats any kind it does not know as
// KindGeneric.
func (s Semiring) Kind() SemiringKind { return s.kind }

// EdgeValue returns the matrix entry that represents one graph arc in
// this semiring: over (min,+) the arc weight, or 1 per hop when the
// graph is unweighted (One = 0 would make every edge free); over the
// boolean semiring always One ("true"), ignoring weights entirely.
// Adjacency-matrix constructors (matmul.FromGraph) consult this so the
// per-semiring semantics live with the semiring, not in string
// comparisons at the call site.
func (s Semiring) EdgeValue(w int64, weighted bool) int64 { return s.edgeValue(w, weighted) }

// Add applies the semiring's additive operation (min for MinPlus,
// logical-or for BoolOrAnd). It is commutative and associative with
// identity Zero, so accumulation order never affects results.
func (s Semiring) Add(a, b int64) int64 { return s.add(a, b) }

// Mul applies the semiring's multiplicative operation (+ for MinPlus,
// logical-and for BoolOrAnd). Mul(x, Zero) = Zero for both provided
// semirings, which is what lets sparse products skip absent entries.
func (s Semiring) Mul(a, b int64) int64 { return s.mul(a, b) }

// MinPlus returns the tropical (min,+) semiring over non-negative path
// weights: Add is min, Mul is saturating addition, Zero is InfWeight
// (an absent entry means "no path"), One is 0 (the empty path). Matrix
// powers over MinPlus compute hop-limited shortest-path distances,
// which is the algebraic engine of Dory-Parter's APSP and hopset
// constructions.
func MinPlus() Semiring {
	return Semiring{
		Name: "minplus",
		Zero: InfWeight,
		One:  0,
		kind: KindMinPlus,
		add: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		mul: func(a, b int64) int64 {
			if a >= InfWeight || b >= InfWeight {
				return InfWeight
			}
			if s := a + b; s < InfWeight {
				return s
			}
			return InfWeight
		},
		edgeValue: func(w int64, weighted bool) int64 {
			if weighted {
				return w
			}
			return 1
		},
	}
}

// SemiringByName resolves a semiring from its Name field — the inverse
// direction serialized matrix state needs: checkpoints store only the
// name (the function fields cannot be serialized) and rebuild the
// semiring on restore.
func SemiringByName(name string) (Semiring, error) {
	switch name {
	case "minplus":
		return MinPlus(), nil
	case "booland":
		return BoolOrAnd(), nil
	case "maxmin":
		return MaxMin(), nil
	}
	return Semiring{}, fmt.Errorf("core: unknown semiring %q (known: minplus, booland, maxmin)", name)
}

// AllSemirings returns every semiring this package defines, one
// instance each. Generic property tests (semiring axioms, serialization
// round-trips) iterate this list so a newly added semiring is covered
// by construction; keep it in sync with SemiringByName.
func AllSemirings() []Semiring {
	return []Semiring{MinPlus(), BoolOrAnd(), MaxMin()}
}

// MaxMin returns the bottleneck (max,min) semiring over widths in
// [0, InfWidth]: Add is max, Mul is min, Zero is 0 (an absent entry
// means "no path", width zero), One is InfWidth (the empty path has
// unbounded width). Matrix powers over MaxMin compute hop-limited
// widest-path (maximum-bottleneck) values: the product entry
// max_k min(A[i][k], B[k][j]) is the best bottleneck over one more hop.
// Because Zero doubles as the absent-entry sentinel, edge widths must
// be strictly positive; adjacency constructors for this semiring
// enforce w >= 1.
func MaxMin() Semiring {
	return Semiring{
		Name: "maxmin",
		Zero: 0,
		One:  InfWidth,
		kind: KindMaxMin,
		add: func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
		mul: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		edgeValue: func(w int64, weighted bool) int64 {
			if weighted {
				return w
			}
			return 1
		},
	}
}

// BoolOrAnd returns the boolean (or,and) semiring over {0, 1}: Zero is
// 0 (false), One is 1 (true). Matrix powers over BoolOrAnd compute
// hop-limited reachability, the unweighted shadow of the distance
// product (useful for spanner and connectivity subroutines).
func BoolOrAnd() Semiring {
	return Semiring{
		Name:      "booland",
		Zero:      0,
		One:       1,
		add:       func(a, b int64) int64 { return a | b },
		mul:       func(a, b int64) int64 { return a & b },
		edgeValue: func(int64, bool) int64 { return 1 },
		kind:      KindBoolOrAnd,
	}
}
