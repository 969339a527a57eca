// Package algo implements distributed graph algorithms on top of the
// Congested Clique round engine — the growing Dory-Parter shortest-path
// pipeline. BFSKernel and BellmanFordKernel embed the input graph G
// into the clique (nodes only use clique links that correspond to
// G-edges) and relax distances round by round; every other distance
// kernel composes semiring matrix products from internal/matmul, the
// algebraic route the paper takes to its exponential speedup. Every
// algorithm is verified against a sequential reference implementation,
// and the distributed pipelines are cross-checked against each other.
//
// The paper's reduction is one idea — shortest-path-like problems are
// semiring matrix products composed in stages — and the package spells
// it once: powerKernel (power.go) computes a semiring power A^e by
// square-and-multiply, and pipelineKernel (pipeline.go) chains a
// stage 1 that builds a relaxation matrix (a power, or a hopset) with
// per-source relaxation products. The named kernels (APSPKernel,
// KSourceKernel, ApproxSSSPKernel, ...) are specs for those two — an
// adjacency, an exponent or stage 1, a projection — and all register
// with the clique session registry (kernels.go), so callers compose
// them on one warm clique.Session.
package algo

import (
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// Unreached marks a vertex with no path from the source.
const Unreached = int64(-1)

// bfsNode floods hop distances: when a node first learns (or improves)
// its distance it broadcasts the new value to all G-neighbors in the
// same round, using exactly one word per incident link — within the
// default one-message-per-link budget. One bfsNode serves every node
// of the pass; node v's distance lives in dist[v].
type bfsNode struct {
	g    *graph.CSR
	src  core.NodeID
	dist []int64
}

// newBFSNode is the BFS handler of a distKernel pass.
func newBFSNode(g *graph.CSR, src core.NodeID, dist []int64) engine.Node {
	return &bfsNode{g: g, src: src, dist: dist}
}

func (nd *bfsNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	dist := &nd.dist[ctx.ID()]
	improved := false
	if r == 0 && ctx.ID() == nd.src {
		*dist = 0
		improved = true
	}
	for _, m := range inbox {
		if d := int64(m.Payload) + 1; *dist == Unreached || d < *dist {
			*dist = d
			improved = true
		}
	}
	if !improved {
		return nil
	}
	for _, v := range nd.g.Neighbors(ctx.ID()) {
		if err := ctx.Send(v, uint64(*dist)); err != nil {
			return err
		}
	}
	return nil
}

// BFSRef is the sequential reference: a textbook queue-based BFS.
func BFSRef(g *graph.CSR, src core.NodeID) []int64 {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = Unreached
	}
	if g.N == 0 {
		return dist
	}
	dist[src] = 0
	queue := []core.NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}
