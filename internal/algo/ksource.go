package algo

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// fixedSources is the source picker of kernels constructed with an
// explicit source list.
func fixedSources(sources []core.NodeID) func(*graph.CSR) ([]core.NodeID, error) {
	return func(*graph.CSR) ([]core.NodeID, error) { return sources, nil }
}

// distRows rewrites relaxed (min,+) rows in place with the package's
// Unreached sentinel for infinite entries.
func distRows(rows [][]int64) [][]int64 {
	for _, row := range rows {
		for v, d := range row {
			if d >= core.InfWeight {
				row[v] = Unreached
			}
		}
	}
	return rows
}

// distProjection is the pipeline projection of the k-source distance
// kernels: the distance rows themselves.
func distProjection(_ []core.NodeID, rows [][]int64) any { return distRows(rows) }

// powerPipeline is the spec of an exact two-stage pipeline: stage 1
// powers the given adjacency to S = A^h for h = hops(n) >= 1 clamped to
// n-1, and stage 2 runs the ceil((n-1)/h) products that reach
// exactness. Larger h shifts work from stage 2 (fewer dense products)
// to stage 1 (a denser power matrix) — with h = 1 stage 1 is free and
// stage 2 degenerates to n-1 Bellman-Ford-style relaxation products.
func powerPipeline(name string, adjacency func(*graph.CSR) (*matmul.Matrix, error),
	sources func(*graph.CSR) ([]core.NodeID, error), hops func(n int) int,
	project func([]core.NodeID, [][]int64) any) pipelineSpec {
	return pipelineSpec{
		name:    name,
		sources: sources,
		stage1: func() clique.Checkpointable {
			return &powerKernel{spec: powerSpec{
				name:      name,
				adjacency: adjacency,
				exponent: func(n int) (int, error) {
					h := hops(n)
					if h < 1 {
						return 0, fmt.Errorf("algo: %s hop horizon %d must be >= 1", name, h)
					}
					return clampHops(h, n), nil
				},
				project: func(m *matmul.Matrix) any { return m },
			}}
		},
		relaxOver: func(stage1 any) (*matmul.Matrix, int, error) {
			s := stage1.(*matmul.Matrix)
			h := clampHops(hops(s.N), s.N)
			if h < 1 {
				// n <= 1: nothing to relax, S is irrelevant.
				return s, 0, nil
			}
			return s, (s.N - 1 + h - 1) / h, nil
		},
		project: project,
	}
}

// KSourceKernel computes exact shortest-path distances from k source
// vertices as the (min,+) two-stage pipeline (see pipelineKernel): stage
// 1 computes S = A^h, the h-hop distance matrix, by square-and-multiply;
// stage 2 runs ceil((n-1)/h) relaxation products from the source
// indicator columns — the composition skeleton the Dory-Parter hopset
// construction drops into. Result is the distance rows ([][]int64,
// dist[j][v] = distance from sources[j] to v, Unreached when
// disconnected). Unweighted session graphs are treated as
// unit-weighted.
type KSourceKernel struct{ pipelineKernel }

// NewKSourceKernel returns a k-source distance kernel for the given
// source vertices and per-product hop horizon h >= 1.
func NewKSourceKernel(sources []core.NodeID, h int) *KSourceKernel {
	return &KSourceKernel{pipelineKernel{spec: powerPipeline("ksource", minplusAdjacency,
		fixedSources(sources), func(int) int { return h }, distProjection)}}
}

// Dist returns the typed distance rows, nil before completion.
func (k *KSourceKernel) Dist() [][]int64 { return resultAs[[][]int64](k.result) }

// RelaxKernel runs only the per-source relaxation stage of the
// k-source pipeline over a caller-supplied (min,+) matrix S: starting
// from the source indicator columns, it iterates `products` dense
// engine products B_{t+1} = S ⊗ B_t and reports the resulting
// distance rows. It is exactly stage 2 of ApproxKSourceKernel (and of
// KSourceKernel) with stage 1 skipped — the steady-state fast path of
// ccserve's hopset-augmented adjacency cache: construct the hopset
// once, cache S = Augment(base, hopset) with products = min(β, n-1),
// and every later (1+ε)-approximate query pays zero stage-1 rounds
// while returning bit-identical distances to a full pipeline run.
// Result is the distance rows ([][]int64, Unreached when the product
// horizon never reached v).
//
// The kernel runs on any session of size S.N (graph-bound or
// clique.NewSize); the session graph is ignored.
type RelaxKernel struct{ pipelineKernel }

// NewRelaxKernel returns a relaxation-only kernel over matrix s from
// the given sources, running `products` dense products. For
// bit-identity with ApproxKSourceKernel at hopset bound β, pass
// products = RelaxProducts(β, s.N).
func NewRelaxKernel(s *matmul.Matrix, sources []core.NodeID, products int) *RelaxKernel {
	return &RelaxKernel{pipelineKernel{spec: pipelineSpec{
		name:    "relax",
		sources: fixedSources(sources),
		relaxOver: func(any) (*matmul.Matrix, int, error) {
			if s == nil {
				return nil, 0, fmt.Errorf("algo: relax kernel requires a matrix")
			}
			if products < 0 {
				return nil, 0, fmt.Errorf("algo: relax product count %d must be >= 0", products)
			}
			return s, products, nil
		},
		project: distProjection,
	}}}
}

// Dist returns the typed distance rows, nil before completion.
func (k *RelaxKernel) Dist() [][]int64 { return resultAs[[][]int64](k.result) }

// RelaxProducts returns the product count that makes a RelaxKernel
// over a hopset-augmented matrix bit-identical to the approximate
// pipeline's stage 2: the hop bound β clamped to n-1 (no shortest
// path has more hops than that even without shortcuts).
func RelaxProducts(beta, n int) int { return clampHops(beta, n) }
