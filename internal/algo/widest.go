package algo

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// This file instantiates the package's two distance-product pipelines —
// repeated squaring and the two-stage k-source relaxation — over the
// (max,min) bottleneck semiring: widest paths. The width of a path is
// the minimum edge weight along it, and the widest-path value between
// u and v is the maximum width over all u-v paths. Matrix powers over
// core.MaxMin compute exactly the hop-limited version of that value, so
// powerKernel and pipelineKernel carry over unchanged; only the
// adjacency constructor and the result conventions differ.
//
// Width conventions (shared by the kernels and WidestRef, so oracle
// comparisons are bit-identity): width[u][u] = core.InfWidth (the empty
// path has unbounded width), width[u][v] = 0 when v is unreachable from
// u (the semiring Zero), and the true bottleneck width otherwise.

// maxminAdjacency validates g and builds its reflexive (max,min)
// adjacency matrix. Unweighted graphs are treated as unit-weighted; edge
// widths must be in [1, InfWidth): zero is the semiring's absent-entry
// sentinel and InfWidth is reserved for the empty path.
func maxminAdjacency(g *graph.CSR) (*matmul.Matrix, error) {
	g = g.WithUnitWeights()
	for _, w := range g.Weights {
		if w < 1 || w >= core.InfWidth {
			return nil, fmt.Errorf("algo: widest paths require weights in [1, %d), got %d", core.InfWidth, w)
		}
	}
	return matmul.FromGraph(g, core.MaxMin(), true)
}

// widthMatrix projects a (max,min) power to dense rows ([][]int64) of
// raw width values: absent entries are 0 (the semiring Zero, "no path").
func widthMatrix(pw *matmul.Power) any { return denseRows(pw.Dense()) }

// WidestPathKernel computes all-pairs widest-path (maximum-bottleneck)
// values by (max,min) repeated squaring: W_1 = A (the reflexive
// bottleneck adjacency matrix), W_2h = W_h ⊗ W_h, one engine pass per
// squaring, stopping once the hop horizon reaches n-1 — APSPKernel's
// square-until-stable skeleton instantiated over core.MaxMin. Result is
// the width matrix ([][]int64; see the file header for the value
// conventions). Unweighted session graphs are treated as unit-weighted
// (every width 1).
type WidestPathKernel struct{ powerKernel }

// NewWidestPathKernel returns an all-pairs widest-path kernel.
func NewWidestPathKernel() *WidestPathKernel {
	return &WidestPathKernel{powerKernel{spec: powerSpec{
		name:      "widest",
		adjacency: maxminAdjacency,
		exponent:  squaringExponent,
		project:   widthMatrix,
	}}}
}

// Width returns the typed width matrix, nil before completion.
func (k *WidestPathKernel) Width() [][]int64 { return resultAs[[][]int64](k.result) }

// WidestKSourceKernel computes widest-path values from k source
// vertices as the (max,min) instantiation of the two-stage k-source
// pipeline: stage 1 powers the bottleneck adjacency to S = A^h by
// square-and-multiply, stage 2 iterates ceil((n-1)/h) dense products
// B_{t+1} = S ⊗ B_t from the source indicator columns (InfWidth at the
// source, 0 elsewhere). Result is the width rows ([][]int64,
// width[j][v] = the widest-path value from sources[j] to v; see the
// file header for the value conventions). Unweighted session graphs are
// treated as unit-weighted.
type WidestKSourceKernel struct{ pipelineKernel }

// NewWidestKSourceKernel returns a k-source widest-path kernel for the
// given source vertices and per-product hop horizon h >= 1.
func NewWidestKSourceKernel(sources []core.NodeID, h int) *WidestKSourceKernel {
	return &WidestKSourceKernel{pipelineKernel{spec: powerPipeline("widest-ksource", maxminAdjacency,
		fixedSources(sources), func(int) int { return h },
		func(_ []core.NodeID, rows [][]int64) any { return rows })}}
}

// Width returns the typed width rows, nil before completion.
func (k *WidestKSourceKernel) Width() [][]int64 { return resultAs[[][]int64](k.result) }

// WidestRef is the sequential widest-path reference: a maximum-
// bottleneck Dijkstra from src over g's weights (unit widths when g is
// unweighted). The widest-path value of each vertex is unique, so any
// correct algorithm — including the semiring pipelines above — must
// match it bit for bit.
func WidestRef(g *graph.CSR, src core.NodeID) []int64 {
	gw := g.WithUnitWeights()
	width := make([]int64, gw.N)
	if gw.N == 0 {
		return width
	}
	width[src] = core.InfWidth
	visited := make([]bool, gw.N)
	for {
		best := core.NodeID(-1)
		var bw int64
		for v := 0; v < gw.N; v++ {
			if !visited[v] && width[v] > bw {
				best, bw = core.NodeID(v), width[v]
			}
		}
		if best < 0 {
			return width
		}
		visited[best] = true
		nbrs := gw.Neighbors(best)
		ws := gw.NeighborWeights(best)
		for i, u := range nbrs {
			w := bw
			if ws[i] < w {
				w = ws[i]
			}
			if w > width[u] {
				width[u] = w
			}
		}
	}
}
