package algo

import (
	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// hopsetPipeline is the spec of a (1+ε)-approximate two-stage pipeline
// — the hopset swap the paper's pipeline is built around: stage 1 runs
// hopset.ConstructKernel's β limited-hop products and augments the
// rounded adjacency with the shortcut star, and stage 2 runs
// RelaxProducts(β, n) products over it. The hopset guarantee makes
// β-hop distances on the augmented matrix (1+ε)-accurate, so β products
// suffice where exactness needed ceil((n-1)/h).
func hopsetPipeline(name string, sources func(*graph.CSR) ([]core.NodeID, error),
	p hopset.Params, project func([]core.NodeID, [][]int64) any) pipelineSpec {
	return pipelineSpec{
		name:    name,
		sources: sources,
		stage1:  func() clique.Checkpointable { return hopset.NewConstructKernel(p) },
		relaxOver: func(stage1 any) (*matmul.Matrix, int, error) {
			hs := stage1.(*hopset.Hopset)
			s, err := hopset.Augment(hs.Base, hs)
			if err != nil {
				return nil, 0, err
			}
			return s, RelaxProducts(hs.Beta, s.N), nil
		},
		project: project,
	}
}

// ApproxKSourceKernel computes (1+ε)-approximate shortest-path
// distances from k source vertices as the two-stage pipeline with a
// hopset for stage 1 (see pipelineKernel and hopsetPipeline): it is
// KSourceKernel with the power matrix S = A^h replaced by the
// hopset-augmented adjacency, which only moves hub columns.
//
// Every reported distance d satisfies d* <= d (always: shortcuts carry
// genuine path weights and rounding only inflates) and d <= (1+ε)·d*
// under the hopset coverage guarantee (deterministic when every vertex
// is a hub — HubRate 1 — and with high probability over Params.Seed
// otherwise). Result is the distance rows ([][]int64, dist[j][v] = the
// approximate distance from sources[j] to v, Unreached when
// disconnected). Unweighted session graphs are treated as
// unit-weighted.
type ApproxKSourceKernel struct{ pipelineKernel }

// NewApproxKSourceKernel returns a (1+ε)-approximate k-source distance
// kernel for the given source vertices and hopset parameters
// (zero-value fields select the defaults; see hopset.Params).
func NewApproxKSourceKernel(sources []core.NodeID, p hopset.Params) *ApproxKSourceKernel {
	return &ApproxKSourceKernel{pipelineKernel{spec: hopsetPipeline("approx-ksource",
		fixedSources(sources), p, distProjection)}}
}

// Dist returns the typed distance rows, nil before completion.
func (k *ApproxKSourceKernel) Dist() [][]int64 { return resultAs[[][]int64](k.result) }

// Hopset returns the hopset stage 1 constructed, nil before stage 1
// completes — observability for tests and benchmarks.
func (k *ApproxKSourceKernel) Hopset() *hopset.Hopset { return k.hs }

// Augmented returns the hopset-augmented matrix stage 2 relaxes over,
// nil before stage 2 starts — what a caller that relaxes more sources
// over the same hopset later (NewRelaxKernel) keeps.
func (k *ApproxKSourceKernel) Augmented() *matmul.Matrix {
	if k.rx == nil {
		return nil
	}
	return k.rx.Over()
}

// ApproxSSSPKernel computes (1+ε)-approximate single-source
// shortest-path distances — the paper's headline workload — as the
// one-source specialization of ApproxKSourceKernel: hopset
// construction, then RelaxProducts(β, n) relaxation products over the
// augmented matrix, all on one warm session. dist[v] is within
// [d*, (1+ε)·d*] of the true distance d* under the hopset guarantee.
// Result is the distance vector ([]int64, Unreached for disconnected
// vertices).
type ApproxSSSPKernel struct{ pipelineKernel }

// NewApproxSSSPKernel returns a (1+ε)-approximate SSSP kernel from src
// with the given hopset parameters (zero-value fields select the
// defaults; see hopset.Params).
func NewApproxSSSPKernel(src core.NodeID, p hopset.Params) *ApproxSSSPKernel {
	return &ApproxSSSPKernel{pipelineKernel{spec: hopsetPipeline("approx-sssp",
		fixedSources([]core.NodeID{src}), p,
		func(_ []core.NodeID, rows [][]int64) any { return distRows(rows)[0] })}}
}

// Dist returns the typed distance vector, nil before completion.
func (k *ApproxSSSPKernel) Dist() []int64 { return resultAs[[]int64](k.result) }

// Hopset returns the hopset stage 1 constructed, nil before stage 1
// completes.
func (k *ApproxSSSPKernel) Hopset() *hopset.Hopset { return k.hs }
