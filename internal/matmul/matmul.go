// Package matmul is the semiring-parameterized sparse matrix subsystem
// of the Dory-Parter reproduction. The paper's exponential speedup for
// Congested Clique shortest paths comes from computing distance
// products — matrix products over the (min,+) semiring — with balanced
// routing inside the O(log n)-bit per-link budget; this package
// provides exactly that machinery.
//
// A Matrix is an n x n sparse matrix in the same CSR layout as
// internal/graph, with entries from a core.Semiring (absent entries are
// the semiring Zero). Products come in two executions:
//
//   - MulRef / MulDenseRef: sequential references, used for
//     verification.
//   - Pass (NewPass / NewDensePass): distributed execution on the round
//     engine. Node v owns row v of both operands, and node k streams
//     its row of B, in budget-paced rounds through the engine's sharded
//     router, to the columns of its own row of A, and nobody asks (see
//     mul.go). The engine's stats expose exactly how many rounds and
//     messages the model charged.
//
// Every operand here is a function of an undirected graph — its
// adjacency, or a power or a hopset augmentation of one — and two
// preconditions say so, each checked once before any round runs and
// refused with an error naming the offending entry: every product needs
// an A that equals its transpose, in values too (NewPass and
// NewDensePass check it), and every Power and Relaxation loop an operand
// that also carries One on its diagonal (checked at the loop's first
// engine product, or by the Relaxation that left a held Plan).
//
// Every multiplying kernel drives one of two product loops, both clique
// session kernels (kernel.go): Power computes A^e by square-and-multiply,
// and Relaxation iterates B ← S ⊗ B from the sources' indicator
// columns, its first product read off each node's own row of S. One
// constructor builds every engine product of both: every Relaxation
// product after the first and every squaring after the first stream
// only Δ, the entries the product before changed, onto
// accumulators that start from the node's own row. Each loop stops at
// the first product that changes nothing, and only the loops decide
// which products vote on that. On top of them, internal/algo builds APSP by
// repeated squaring, hop-limited distances and stage 2 of its
// pipelines, and internal/hopset the paper's hopset construction.
package matmul

import (
	"fmt"
	"slices"
	"sort"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// Matrix is an immutable n x n sparse matrix over a semiring, stored in
// CSR form: row v's entries occupy Cols[Rows[v]:Rows[v+1]] (strictly
// sorted by column) with parallel values in Vals. Entries equal to the
// semiring Zero are never stored.
type Matrix struct {
	// N is the dimension; rows and columns are indexed by core.NodeID
	// in [0, N).
	N int
	// Sr is the semiring the entries live in.
	Sr core.Semiring
	// Rows has length N+1: row v spans [Rows[v], Rows[v+1]).
	Rows []int32
	// Cols holds the column indices, strictly sorted within each row.
	Cols []core.NodeID
	// Vals parallels Cols.
	Vals []int64
}

// NNZ returns the number of stored (non-Zero) entries.
func (m *Matrix) NNZ() int { return len(m.Cols) }

// Row returns the column-index and value slices of row v. They alias
// the matrix's internal storage and must not be modified.
func (m *Matrix) Row(v core.NodeID) (cols []core.NodeID, vals []int64) {
	lo, hi := m.Rows[v], m.Rows[v+1]
	return m.Cols[lo:hi], m.Vals[lo:hi]
}

// At returns the (i, j) entry, or the semiring Zero if it is absent.
func (m *Matrix) At(i, j core.NodeID) int64 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= j })
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return m.Sr.Zero
}

// Validate checks the structural invariants: offsets monotone and
// spanning, columns in range and strictly sorted per row, no stored
// Zero entries. Intended for tests, not hot paths.
func (m *Matrix) Validate() error {
	if len(m.Rows) != m.N+1 {
		return fmt.Errorf("matmul: len(Rows)=%d, want N+1=%d", len(m.Rows), m.N+1)
	}
	if m.Rows[0] != 0 || int(m.Rows[m.N]) != len(m.Cols) {
		return fmt.Errorf("matmul: row offsets [%d,%d] do not span %d entries",
			m.Rows[0], m.Rows[m.N], len(m.Cols))
	}
	if len(m.Vals) != len(m.Cols) {
		return fmt.Errorf("matmul: len(Vals)=%d, want %d", len(m.Vals), len(m.Cols))
	}
	for v := 0; v < m.N; v++ {
		if m.Rows[v] > m.Rows[v+1] {
			return fmt.Errorf("matmul: row offsets not monotone at row %d", v)
		}
		cols, vals := m.Row(core.NodeID(v))
		for k, j := range cols {
			if j < 0 || int(j) >= m.N {
				return fmt.Errorf("matmul: row %d has out-of-range column %d", v, j)
			}
			if k > 0 && cols[k-1] >= j {
				return fmt.Errorf("matmul: row %d columns not strictly sorted", v)
			}
			if vals[k] == m.Sr.Zero {
				return fmt.Errorf("matmul: row %d stores a Zero entry at column %d", v, j)
			}
		}
	}
	return nil
}

// mirror returns an entry (i, j) whose mirror (j, i) m does not store
// or stores with another value, or ok false when m equals its
// transpose. It walks the rows in order with one cursor per row: row
// v's entry (v, u) must be the next entry of row u not yet matched,
// since the rows before v have matched theirs, so the walk is
// O(nnz + n). Each entry it accepts matches a distinct entry, so once
// all are accepted none is left over.
func (m *Matrix) mirror() (i, j core.NodeID, ok bool) {
	n, rows, cols := m.N, m.Rows, m.Cols
	next := slices.Clone(rows[:n]) // next[u]: row u's first unmatched entry
	for v := 0; v < n; v++ {
		for e, u := range cols[rows[v]:rows[v+1]] {
			if uint(u) >= uint(n) {
				return core.NodeID(v), u, true
			}
			p := next[u]
			if p == rows[u+1] || cols[p] != core.NodeID(v) {
				if p < rows[u+1] && int(cols[p]) < v {
					// Row cols[p], already walked, lacks u.
					return u, cols[p], true
				}
				return core.NodeID(v), u, true
			}
			if m.Vals[p] != m.Vals[int(rows[v])+e] {
				return core.NodeID(v), u, true
			}
			next[u] = p + 1
		}
	}
	return 0, 0, false
}

// checkSymmetric returns an error naming an entry of a whose mirror is
// missing or holds another value, nil when a equals its transpose: the
// precondition of every product (newPass says why).
func checkSymmetric(a *Matrix) error {
	if i, j, asym := a.mirror(); asym {
		return fmt.Errorf("matmul: A stores (%d, %d) but not (%d, %d) with its value; every product needs an A that equals its transpose", i, j, j, i)
	}
	return nil
}

// checkLoop returns an error naming the offending entry when a breaks
// the precondition of a Power or Relaxation loop: a equals its transpose
// and carries One on its diagonal (kernel.go says why).
func checkLoop(a *Matrix) error {
	if err := checkSymmetric(a); err != nil {
		return err
	}
	for v := 0; v < a.N; v++ {
		if a.At(core.NodeID(v), core.NodeID(v)) != a.Sr.One {
			return fmt.Errorf("matmul: A lacks One at (%d, %d); a Power or Relaxation loop needs One on A's diagonal", v, v)
		}
	}
	return nil
}

// rowBuilder assembles a Matrix row by row in index order.
type rowBuilder struct {
	m *Matrix
}

func newBuilder(n int, sr core.Semiring) *rowBuilder {
	return &rowBuilder{m: &Matrix{N: n, Sr: sr, Rows: make([]int32, 1, n+1)}}
}

// appendRow adds the next row from a dense accumulator, skipping Zero
// entries.
func (b *rowBuilder) appendRow(acc []int64) {
	m := b.m
	for j, val := range acc {
		if val != m.Sr.Zero {
			m.Cols = append(m.Cols, core.NodeID(j))
			m.Vals = append(m.Vals, val)
		}
	}
	m.Rows = append(m.Rows, int32(len(m.Cols)))
}

// Identity returns the n x n identity matrix: diagonal One, Zero
// elsewhere.
func Identity(n int, sr core.Semiring) *Matrix {
	m := &Matrix{
		N:    n,
		Sr:   sr,
		Rows: make([]int32, n+1),
		Cols: make([]core.NodeID, n),
		Vals: make([]int64, n),
	}
	for v := 0; v < n; v++ {
		m.Rows[v+1] = int32(v + 1)
		m.Cols[v] = core.NodeID(v)
		m.Vals[v] = sr.One
	}
	return m
}

// FromGraph builds the adjacency matrix of g over sr. Each arc's entry
// is sr.EdgeValue(weight, weighted) — the arc weight over (min,+), a
// hop cost of 1 when g is unweighted, always One over the boolean
// semiring — so matrix powers mean what the algorithms expect. With
// reflexive set, the diagonal carries One (folded via sr.Add with any
// self-loop the input carries), which makes matrix powers compute "at
// most h hops" rather than "exactly h hops" — the form every
// distance-product algorithm wants. The index structure (Rows, Cols)
// aliases the CSR's storage in the non-reflexive case; values are
// freshly allocated.
func FromGraph(g *graph.CSR, sr core.Semiring, reflexive bool) (*Matrix, error) {
	weighted := g.Weights != nil
	arcVal := func(ws []int64, i int) int64 {
		var w int64
		if ws != nil {
			w = ws[i]
		}
		return sr.EdgeValue(w, weighted)
	}
	if !reflexive {
		vals := make([]int64, len(g.Targets))
		for i := range vals {
			vals[i] = arcVal(g.Weights, i)
		}
		m := &Matrix{N: g.N, Sr: sr, Rows: g.Offsets, Cols: g.Targets, Vals: vals}
		return m, m.Validate()
	}
	n := g.N
	m := &Matrix{
		N:    n,
		Sr:   sr,
		Rows: make([]int32, n+1),
		Cols: make([]core.NodeID, 0, len(g.Targets)+n),
		Vals: make([]int64, 0, len(g.Targets)+n),
	}
	for v := 0; v < n; v++ {
		cols, ws := g.Row(core.NodeID(v))
		placedDiag := false
		for i, u := range cols {
			if !placedDiag && u >= core.NodeID(v) {
				placedDiag = true
				if u == core.NodeID(v) {
					// Fold an existing self-loop into the diagonal
					// instead of emitting a duplicate column.
					m.Cols = append(m.Cols, u)
					m.Vals = append(m.Vals, sr.Add(sr.One, arcVal(ws, i)))
					continue
				}
				m.Cols = append(m.Cols, core.NodeID(v))
				m.Vals = append(m.Vals, sr.One)
			}
			m.Cols = append(m.Cols, u)
			m.Vals = append(m.Vals, arcVal(ws, i))
		}
		if !placedDiag {
			m.Cols = append(m.Cols, core.NodeID(v))
			m.Vals = append(m.Vals, sr.One)
		}
		m.Rows[v+1] = int32(len(m.Cols))
	}
	return m, m.Validate()
}

// Dense is an n x k dense matrix over a semiring, row-major: entry
// (v, j) is Vals[v*K+j]. Zero entries are stored explicitly (that is
// what "dense" means here); K is typically a small number of sources.
type Dense struct {
	N, K int
	Sr   core.Semiring
	Vals []int64
}

// NewDense returns an n x k Dense filled with the semiring Zero.
func NewDense(n, k int, sr core.Semiring) *Dense {
	d := &Dense{N: n, K: k, Sr: sr, Vals: make([]int64, n*k)}
	if sr.Zero != 0 {
		for i := range d.Vals {
			d.Vals[i] = sr.Zero
		}
	}
	return d
}

// dense returns m as an n x n Dense, Zero where m stores no entry.
func dense(m *Matrix) *Dense {
	d := NewDense(m.N, m.N, m.Sr)
	for v := 0; v < m.N; v++ {
		cols, vals := m.Row(core.NodeID(v))
		row := d.Row(core.NodeID(v))
		for i, j := range cols {
			row[j] = vals[i]
		}
	}
	return d
}

// sparse returns the n x n Dense d as a Matrix, storing only its
// non-Zero entries.
func sparse(d *Dense) *Matrix {
	zero := d.Sr.Zero
	nnz := 0
	for _, v := range d.Vals {
		if v != zero {
			nnz++
		}
	}
	bld := newBuilder(d.N, d.Sr)
	bld.m.Cols = make([]core.NodeID, 0, nnz)
	bld.m.Vals = make([]int64, 0, nnz)
	for v := 0; v < d.N; v++ {
		bld.appendRow(d.Row(core.NodeID(v)))
	}
	return bld.m
}

// Row returns row v of the dense matrix. It aliases internal storage.
func (d *Dense) Row(v core.NodeID) []int64 { return d.Vals[int(v)*d.K : (int(v)+1)*d.K] }

// At returns the (v, j) entry.
func (d *Dense) At(v core.NodeID, j int) int64 { return d.Vals[int(v)*d.K+j] }

// MulRef is the sequential reference for the sparse product C = A ⊗ B:
// C[i][j] = Add_k Mul(A[i][k], B[k][j]), computed row by row with a
// dense accumulator. Both operands must share the dimension and
// semiring.
func MulRef(a, b *Matrix) (*Matrix, error) {
	if err := checkPair(a.N, b.N, a.Sr, b.Sr); err != nil {
		return nil, err
	}
	sr := a.Sr
	bld := newBuilder(a.N, sr)
	acc := make([]int64, a.N)
	for i := 0; i < a.N; i++ {
		for j := range acc {
			acc[j] = sr.Zero
		}
		aCols, aVals := a.Row(core.NodeID(i))
		for t, k := range aCols {
			aik := aVals[t]
			bCols, bVals := b.Row(k)
			for s, j := range bCols {
				acc[j] = sr.Add(acc[j], sr.Mul(aik, bVals[s]))
			}
		}
		bld.appendRow(acc)
	}
	return bld.m, nil
}

// MulDenseRef is the sequential reference for the sparse-dense product
// C = A ⊗ B with B (and C) n x k dense.
func MulDenseRef(a *Matrix, b *Dense) (*Dense, error) {
	if err := checkPair(a.N, b.N, a.Sr, b.Sr); err != nil {
		return nil, err
	}
	sr := a.Sr
	c := NewDense(a.N, b.K, sr)
	for i := 0; i < a.N; i++ {
		out := c.Row(core.NodeID(i))
		aCols, aVals := a.Row(core.NodeID(i))
		for t, k := range aCols {
			aik := aVals[t]
			bRow := b.Row(k)
			for j, bkj := range bRow {
				if bkj == sr.Zero {
					continue
				}
				out[j] = sr.Add(out[j], sr.Mul(aik, bkj))
			}
		}
	}
	return c, nil
}

func checkPair(an, bn int, asr, bsr core.Semiring) error {
	if an != bn {
		return fmt.Errorf("matmul: dimension mismatch %d vs %d", an, bn)
	}
	if asr.Name != bsr.Name {
		return fmt.Errorf("matmul: semiring mismatch %q vs %q", asr.Name, bsr.Name)
	}
	return nil
}
