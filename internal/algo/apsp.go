package algo

import (
	"fmt"
	"slices"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// minplusAdjacency validates g and builds its reflexive (min,+)
// adjacency matrix, the shared starting point of every distance-product
// pipeline here. Unweighted graphs are treated as unit-weighted;
// negative weights are rejected.
func minplusAdjacency(g *graph.CSR) (*matmul.Matrix, error) {
	g = g.WithUnitWeights()
	if err := checkNonNegative("distance products", g); err != nil {
		return nil, err
	}
	return matmul.FromGraph(g, core.MinPlus(), true)
}

// distMatrix projects a (min,+) power of distances to dense rows
// ([][]int64) with the package's Unreached sentinel for absent
// (infinite) entries.
func distMatrix(pw *matmul.Power) any {
	out := denseRows(pw.Dense())
	for _, row := range out {
		for j, d := range row {
			if d >= core.InfWeight {
				row[j] = Unreached
			}
		}
	}
	return out
}

// denseRows copies the n x n Dense d into rows of one slab.
func denseRows(d *matmul.Dense) [][]int64 {
	vals := slices.Clone(d.Vals)
	out := make([][]int64, d.N)
	for v := range out {
		out[v] = vals[v*d.K : (v+1)*d.K : (v+1)*d.K]
	}
	return out
}

// APSPKernel computes exact all-pairs shortest-path distances by
// distance-product repeated squaring: D_1 = A (the reflexive (min,+)
// adjacency matrix), D_2h = D_h ⊗ D_h, one engine pass per squaring on
// the same warm session, stopping once the hop horizon reaches n-1 —
// exactly ceil(log2(n-1)) engine products, the algebraic skeleton of
// the Dory-Parter pipeline, where sparsified products and hopsets
// shrink each product's cost further. Result is the distance matrix
// ([][]int64, Unreached for disconnected pairs). Unweighted session
// graphs are treated as unit-weighted.
type APSPKernel struct{ powerKernel }

// NewAPSPKernel returns an all-pairs shortest-path kernel.
func NewAPSPKernel() *APSPKernel {
	return &APSPKernel{powerKernel{spec: powerSpec{
		name:      "apsp",
		adjacency: minplusAdjacency,
		exponent:  squaringExponent,
		project:   distMatrix,
	}}}
}

// Dist returns the typed distance matrix, nil before completion.
func (k *APSPKernel) Dist() [][]int64 { return resultAs[[][]int64](k.result) }

// HopLimitedKernel computes the truncated distance matrix d^h —
// d^h(u,v) is the minimum weight of a u-v path with at most h edges,
// Unreached if there is none: the paper's h-hop distance operator, the
// object hopsets exist to shrink h for. It equals the h-th (min,+)
// power of the reflexive adjacency matrix, computed by
// square-and-multiply in O(log h) engine products, with h clamped to
// n-1. Result is the truncated distance matrix ([][]int64). Unweighted
// session graphs are treated as unit-weighted.
type HopLimitedKernel struct{ powerKernel }

// NewHopLimitedKernel returns a kernel computing h-hop-limited
// distances; h must be non-negative.
func NewHopLimitedKernel(h int) *HopLimitedKernel {
	return &HopLimitedKernel{powerKernel{spec: powerSpec{
		name:      "hop-limited",
		adjacency: minplusAdjacency,
		exponent: func(n int) (int, error) {
			if h < 0 {
				return 0, fmt.Errorf("algo: negative hop bound %d", h)
			}
			return clampHops(h, n), nil
		},
		project: distMatrix,
	}}}
}

// Dist returns the typed truncated distance matrix, nil before
// completion.
func (k *HopLimitedKernel) Dist() [][]int64 { return resultAs[[][]int64](k.result) }
