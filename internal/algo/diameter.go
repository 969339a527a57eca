package algo

import (
	"fmt"
	"sort"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// DiameterEstimate is the result of a DiameterEstimateKernel run: the
// maximum eccentricity over the sampled sources, which lower-bounds the
// true diameter (exactly for the exact variant; within the hopset's
// (1+ε) inflation for the approximate one).
type DiameterEstimate struct {
	// Estimate is max_j Ecc[j], or Unreached when any sampled source
	// fails to reach some vertex (a disconnected graph has infinite
	// diameter).
	Estimate int64
	// Sources are the sampled source vertices, ascending.
	Sources []core.NodeID
	// Ecc[j] is the (estimated) eccentricity of Sources[j]: the
	// maximum distance from it, Unreached if some vertex is
	// unreachable.
	Ecc []int64
}

// DiameterEstimateKernel estimates the weighted diameter from sampled-
// source eccentricities over the k-source pipeline: it deterministically
// samples k sources (seeded partial Fisher-Yates), runs KSourceKernel's
// exact pipeline — or, for the approximate variant, ApproxKSourceKernel's
// hopset-backed one — from them, and reports max_j ecc(s_j). For the
// exact variant the estimate always satisfies the bracketing
// ecc_true(s_j) <= estimate <= diameter; sampling every vertex makes it
// the exact diameter. The approximate variant inflates each
// eccentricity by at most the hopset's (1+ε) factor, so
// ecc_true(s_j) <= estimate <= (1+ε)·diameter. Result is the
// DiameterEstimate. Unweighted session graphs are treated as
// unit-weighted.
type DiameterEstimateKernel struct{ pipelineKernel }

// NewDiameterEstimateKernel returns an exact sampled-source diameter
// estimator over `sample` sources (clamped to n) drawn deterministically
// from seed.
func NewDiameterEstimateKernel(sample int, seed int64) *DiameterEstimateKernel {
	const name = "diameter-est"
	return &DiameterEstimateKernel{pipelineKernel{spec: powerPipeline(name, minplusAdjacency,
		sampledSources(name, sample, seed), logHops, eccentricities)}}
}

// NewApproxDiameterEstimateKernel returns a hopset-backed sampled-source
// diameter estimator: eccentricities come from the (1+ε)-approximate
// k-source pipeline with the given hopset parameters (zero-value fields
// select the defaults; see hopset.Params).
func NewApproxDiameterEstimateKernel(sample int, seed int64, p hopset.Params) *DiameterEstimateKernel {
	const name = "diameter-est-approx"
	return &DiameterEstimateKernel{pipelineKernel{spec: hopsetPipeline(name,
		sampledSources(name, sample, seed), p, eccentricities)}}
}

// Estimate returns the typed result; the zero DiameterEstimate before
// completion.
func (k *DiameterEstimateKernel) Estimate() DiameterEstimate {
	return resultAs[DiameterEstimate](k.result)
}

// splitmix64 advances the sampling PRNG state and returns the next
// word — the standard SplitMix64 step, deterministic across platforms.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// sampleSources deterministically draws min(sample, n) distinct
// vertices by a seeded partial Fisher-Yates shuffle, returned
// ascending.
func sampleSources(n, sample int, seed int64) []core.NodeID {
	if sample > n {
		sample = n
	}
	perm := make([]core.NodeID, n)
	for i := range perm {
		perm[i] = core.NodeID(i)
	}
	state := uint64(seed)
	for i := 0; i < sample; i++ {
		j := i + int(splitmix64(&state)%uint64(n-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	sources := perm[:sample]
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	return sources
}

// sampledSources is the source picker of the diameter estimators: a
// seeded sample of the session graph's vertices.
func sampledSources(name string, sample int, seed int64) func(*graph.CSR) ([]core.NodeID, error) {
	return func(g *graph.CSR) ([]core.NodeID, error) {
		if sample < 1 {
			return nil, fmt.Errorf("algo: %s sample size %d must be >= 1", name, sample)
		}
		if g.N == 0 {
			return nil, fmt.Errorf("algo: %s requires a non-empty graph", name)
		}
		return sampleSources(g.N, sample, seed), nil
	}
}

// eccentricities is the pipeline projection of the diameter estimators:
// it folds the per-source distance rows into eccentricities and the
// diameter estimate.
func eccentricities(sources []core.NodeID, rows [][]int64) any {
	est := DiameterEstimate{Sources: sources, Ecc: make([]int64, len(sources))}
	for j, row := range distRows(rows) {
		ecc := eccentricity(row)
		est.Ecc[j] = ecc
		if ecc == Unreached {
			est.Estimate = Unreached
		}
		if est.Estimate != Unreached && ecc > est.Estimate {
			est.Estimate = ecc
		}
	}
	return est
}

// eccentricity is the maximum of a distance row, Unreached if any
// vertex is unreachable.
func eccentricity(dist []int64) int64 {
	ecc := int64(0)
	for _, d := range dist {
		if d == Unreached {
			return Unreached
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// EccentricityRef is the sequential eccentricity reference: the maximum
// Bellman-Ford distance from src (unit weights when g is unweighted),
// Unreached if any vertex is unreachable.
func EccentricityRef(g *graph.CSR, src core.NodeID) int64 {
	return eccentricity(BellmanFordRef(g.WithUnitWeights(), src))
}
