package matmul

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// This file holds the structural (non-product) matrix constructors the
// hopset subsystem composes with: the entrywise semiring sum that
// merges shortcut edges into an adjacency matrix, and the COO-style
// FromEntries builder that assembles a sparse matrix from an arbitrary
// multiset of entries.

// Add returns the entrywise semiring sum C[i][j] = Add(A[i][j], B[i][j])
// of two same-shape, same-semiring sparse matrices. Over (min,+) this
// is the union of two weighted edge sets keeping the cheaper parallel
// edge — exactly the "merge shortcut edges into the adjacency matrix"
// step of hopset augmentation.
func Add(a, b *Matrix) (*Matrix, error) {
	if err := checkPair(a.N, b.N, a.Sr, b.Sr); err != nil {
		return nil, err
	}
	sr := a.Sr
	c := &Matrix{
		N:    a.N,
		Sr:   sr,
		Rows: make([]int32, 1, a.N+1),
		Cols: make([]core.NodeID, 0, len(a.Cols)+len(b.Cols)),
		Vals: make([]int64, 0, len(a.Cols)+len(b.Cols)),
	}
	emit := func(j core.NodeID, val int64) {
		if val != sr.Zero {
			c.Cols = append(c.Cols, j)
			c.Vals = append(c.Vals, val)
		}
	}
	for v := 0; v < a.N; v++ {
		ac, av := a.Row(core.NodeID(v))
		bc, bv := b.Row(core.NodeID(v))
		i, k := 0, 0
		for i < len(ac) && k < len(bc) {
			switch {
			case ac[i] < bc[k]:
				emit(ac[i], av[i])
				i++
			case ac[i] > bc[k]:
				emit(bc[k], bv[k])
				k++
			default:
				emit(ac[i], sr.Add(av[i], bv[k]))
				i, k = i+1, k+1
			}
		}
		for ; i < len(ac); i++ {
			emit(ac[i], av[i])
		}
		for ; k < len(bc); k++ {
			emit(bc[k], bv[k])
		}
		c.Rows = append(c.Rows, int32(len(c.Cols)))
	}
	return c, nil
}

// Entry is one (row, column, value) coordinate-form matrix entry for
// FromEntries.
type Entry struct {
	// Row and Col locate the entry; both must lie in [0, N).
	Row, Col core.NodeID
	// Val is the entry value; semiring Zero entries are dropped.
	Val int64
}

// countingSort writes src into dst ordered by key, which must lie in
// [0, n); entries with equal keys keep their order.
func countingSort(dst, src []Entry, n int, key func(Entry) core.NodeID) {
	next := make([]int, n+1)
	for _, e := range src {
		next[key(e)+1]++
	}
	for k := 0; k < n; k++ {
		next[k+1] += next[k]
	}
	for _, e := range src {
		dst[next[key(e)]] = e
		next[key(e)]++
	}
}

// FromEntries assembles an n x n sparse matrix from an arbitrary
// multiset of coordinate entries: duplicates at the same (row, column)
// are folded with the semiring Add (the cheaper edge wins over
// (min,+)), Zero entries (and entries that fold to Zero) are dropped,
// and out-of-range coordinates are an error. The input slice is not
// modified.
func FromEntries(n int, sr core.Semiring, entries []Entry) (*Matrix, error) {
	es := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= n || e.Col < 0 || int(e.Col) >= n {
			return nil, fmt.Errorf("matmul: entry (%d,%d) outside [0,%d)", e.Row, e.Col, n)
		}
		if e.Val == sr.Zero {
			continue
		}
		es = append(es, e)
	}
	// Order by (row, column) with two stable counting passes, least
	// significant key first: both keys are bounded by n, so this is
	// O(len + n), and a hopset hands over ~10^5 shortcut entries per
	// construction.
	tmp := make([]Entry, len(es))
	countingSort(tmp, es, n, func(e Entry) core.NodeID { return e.Col })
	countingSort(es, tmp, n, func(e Entry) core.NodeID { return e.Row })
	m := &Matrix{
		N:    n,
		Sr:   sr,
		Rows: make([]int32, n+1),
		Cols: make([]core.NodeID, 0, len(es)),
		Vals: make([]int64, 0, len(es)),
	}
	for i := 0; i < len(es); {
		j := i + 1
		val := es[i].Val
		for j < len(es) && es[j].Row == es[i].Row && es[j].Col == es[i].Col {
			val = sr.Add(val, es[j].Val)
			j++
		}
		if val != sr.Zero {
			m.Cols = append(m.Cols, es[i].Col)
			m.Vals = append(m.Vals, val)
			m.Rows[es[i].Row+1] = int32(len(m.Cols))
		}
		i = j
	}
	for v := 0; v < n; v++ {
		if m.Rows[v+1] < m.Rows[v] {
			m.Rows[v+1] = m.Rows[v]
		}
	}
	return m, nil
}
