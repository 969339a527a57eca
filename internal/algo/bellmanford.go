package algo

import (
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// bfordNode performs one distance-product-style relaxation per round:
// whenever its tentative distance improves, it sends dist + w(v,u)
// along every incident edge — i.e. the candidate distance the neighbor
// would obtain through v. This is the per-round min-plus step that the
// Dory-Parter SSSP pipeline iterates; here it runs to convergence,
// which takes at most n-1 rounds (the maximum hop count of a shortest
// weighted path — note this can far exceed the hop-diameter on graphs
// with heavy edges). Weights must be non-negative (payloads are
// unsigned words). One bfordNode serves every node of the pass; node
// v's distance lives in dist[v].
type bfordNode struct {
	g    *graph.CSR
	src  core.NodeID
	dist []int64
}

// newBFordNode is the Bellman-Ford handler of a distKernel pass.
func newBFordNode(g *graph.CSR, src core.NodeID, dist []int64) engine.Node {
	return &bfordNode{g: g, src: src, dist: dist}
}

func (nd *bfordNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	dist := &nd.dist[ctx.ID()]
	improved := false
	if r == 0 && ctx.ID() == nd.src {
		*dist = 0
		improved = true
	}
	for _, m := range inbox {
		if d := int64(m.Payload); *dist == Unreached || d < *dist {
			*dist = d
			improved = true
		}
	}
	if !improved {
		return nil
	}
	nbrs := nd.g.Neighbors(ctx.ID())
	ws := nd.g.NeighborWeights(ctx.ID())
	for i, v := range nbrs {
		if err := ctx.Send(v, uint64(*dist+ws[i])); err != nil {
			return err
		}
	}
	return nil
}

// BellmanFordRef is the sequential reference: classic |V|-1 passes of
// relaxation over all arcs.
func BellmanFordRef(g *graph.CSR, src core.NodeID) []int64 {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = Unreached
	}
	if g.N == 0 {
		return dist
	}
	dist[src] = 0
	for pass := 0; pass < g.N-1; pass++ {
		changed := false
		for v := 0; v < g.N; v++ {
			if dist[v] == Unreached {
				continue
			}
			nbrs := g.Neighbors(core.NodeID(v))
			ws := g.NeighborWeights(core.NodeID(v))
			for i, u := range nbrs {
				if cand := dist[v] + ws[i]; dist[u] == Unreached || cand < dist[u] {
					dist[u] = cand
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
