package algo

import (
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// boolAdjacency builds g's reflexive boolean adjacency matrix: entry
// (u,v) is One iff u = v or {u,v} is an edge. Weights are irrelevant
// over the boolean semiring, so any graph is accepted.
func boolAdjacency(g *graph.CSR) (*matmul.Matrix, error) {
	return matmul.FromGraph(g, core.BoolOrAnd(), true)
}

// reachMatrix projects a boolean power to dense rows of bools
// ([][]bool).
func reachMatrix(pw *matmul.Power) any {
	d := pw.Dense()
	reach := make([]bool, len(d.Vals))
	for i, x := range d.Vals {
		reach[i] = x != 0
	}
	out := make([][]bool, d.N)
	for v := range out {
		out[v] = reach[v*d.K : (v+1)*d.K : (v+1)*d.K]
	}
	return out
}

// TransitiveClosureKernel computes all-pairs reachability by boolean
// repeated squaring: R_1 = A (the reflexive or/and adjacency matrix),
// R_2h = R_h ⊗ R_h, one engine pass per squaring, stopping once the hop
// horizon reaches n-1 — the unweighted shadow of APSPKernel's distance
// product. Result is the reflexive transitive closure of g ([][]bool,
// reach[u][v] true iff v is reachable from u; every vertex reaches
// itself).
type TransitiveClosureKernel struct{ powerKernel }

// NewTransitiveClosureKernel returns a transitive-closure kernel.
func NewTransitiveClosureKernel() *TransitiveClosureKernel {
	return &TransitiveClosureKernel{powerKernel{spec: powerSpec{
		name:      "closure",
		adjacency: boolAdjacency,
		exponent:  squaringExponent,
		project:   reachMatrix,
	}}}
}

// Reach returns the typed reachability matrix, nil before completion.
func (k *TransitiveClosureKernel) Reach() [][]bool { return resultAs[[][]bool](k.result) }

// ClosureRef is the sequential reachability reference: a queue BFS from
// src, returning the reflexive reachable set as a bool vector. Any
// correct closure computation must match it bit for bit.
func ClosureRef(g *graph.CSR, src core.NodeID) []bool {
	reach := make([]bool, g.N)
	if g.N == 0 {
		return reach
	}
	reach[src] = true
	queue := []core.NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if !reach[u] {
				reach[u] = true
				queue = append(queue, u)
			}
		}
	}
	return reach
}
