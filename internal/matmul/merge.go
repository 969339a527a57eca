package matmul

import (
	"github.com/paper-repo-growth/doryp20/internal/core"
)

// This file holds the structural (non-product) matrix constructor the
// hopset subsystem composes with: the entrywise semiring sum that
// merges shortcut edges into an adjacency matrix.

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
