package algo

import (
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// trueDiameter computes the exact weighted diameter from the
// Bellman-Ford oracle: the maximum finite eccentricity, Unreached for
// disconnected graphs.
func trueDiameter(g *graph.CSR) int64 {
	diam := int64(0)
	for v := 0; v < g.N; v++ {
		ecc := EccentricityRef(g, core.NodeID(v))
		if ecc == Unreached {
			return Unreached
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// TestDiameterExactBracketing checks the exact estimator's guarantees
// on connected graphs: each reported eccentricity is bit-identical to
// the sequential oracle, and the estimate sits in
// [max sampled ecc, diameter].
func TestDiameterExactBracketing(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"gnp":   graph.RandomGNPWeighted(18, 0.25, 9, 13),
		"path":  graph.Path(12).WithUniformRandomWeights(4, 9),
		"dense": graph.RandomGNPWeighted(9, 0.6, 5, 2),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			if trueDiameter(g) == Unreached {
				t.Skip("seeded graph came out disconnected")
			}
			k := NewDiameterEstimateKernel(4, 1)
			runKernel(t, g, k)
			est := k.Estimate()
			if len(est.Sources) == 0 || len(est.Ecc) != len(est.Sources) {
				t.Fatalf("malformed estimate %+v", est)
			}
			diam := trueDiameter(g)
			for j, src := range est.Sources {
				want := EccentricityRef(g, src)
				if est.Ecc[j] != want {
					t.Fatalf("ecc(%d) = %d, oracle %d", src, est.Ecc[j], want)
				}
				if est.Estimate < est.Ecc[j] {
					t.Fatalf("estimate %d below sampled ecc %d", est.Estimate, est.Ecc[j])
				}
			}
			if est.Estimate > diam {
				t.Fatalf("estimate %d exceeds true diameter %d", est.Estimate, diam)
			}
		})
	}
}

// TestDiameterAllSourcesIsExact checks that sampling every vertex
// recovers the exact diameter.
func TestDiameterAllSourcesIsExact(t *testing.T) {
	g := graph.RandomGNPWeighted(15, 0.3, 9, 21)
	if trueDiameter(g) == Unreached {
		t.Skip("seeded graph came out disconnected")
	}
	k := NewDiameterEstimateKernel(g.N, 7)
	runKernel(t, g, k)
	if got, want := k.Estimate().Estimate, trueDiameter(g); got != want {
		t.Fatalf("all-sources estimate %d, true diameter %d", got, want)
	}
}

// TestDiameterApproxBracketing checks the hopset-backed estimator's
// bracketing on connected graphs: every sampled true eccentricity
// lower-bounds the estimate, which stays within (1+eps) of the true
// diameter.
func TestDiameterApproxBracketing(t *testing.T) {
	g := graph.RandomGNPWeighted(24, 0.2, 9, 5)
	if trueDiameter(g) == Unreached {
		t.Skip("seeded graph came out disconnected")
	}
	eps := 0.25
	k := NewApproxDiameterEstimateKernel(4, 3, hopset.Params{Eps: eps})
	runKernel(t, g, k)
	est := k.Estimate()
	diam := trueDiameter(g)
	for j, src := range est.Sources {
		ecc := EccentricityRef(g, src)
		if est.Ecc[j] < ecc {
			t.Fatalf("approx ecc(%d) = %d below true %d", src, est.Ecc[j], ecc)
		}
		if est.Estimate < ecc {
			t.Fatalf("estimate %d below sampled true ecc %d", est.Estimate, ecc)
		}
	}
	if limit := float64(diam) * (1 + eps); float64(est.Estimate) > limit+1e-9 {
		t.Fatalf("estimate %d exceeds (1+eps) x diameter = %g", est.Estimate, limit)
	}
}

// TestDiameterDisconnectedIsUnreached pins the sentinel convention: a
// disconnected graph has infinite diameter.
func TestDiameterDisconnectedIsUnreached(t *testing.T) {
	k := NewDiameterEstimateKernel(8, 1)
	runKernel(t, twoComponents(), k)
	est := k.Estimate()
	if est.Estimate != Unreached {
		t.Fatalf("estimate on a disconnected graph = %d, want Unreached", est.Estimate)
	}
}

// TestSampleSourcesDeterministicAndDistinct pins the sampler: same
// inputs, same sources; distinct vertices; clamped to n.
func TestSampleSourcesDeterministicAndDistinct(t *testing.T) {
	a := sampleSources(20, 5, 42)
	b := sampleSources(20, 5, 42)
	if len(a) != 5 {
		t.Fatalf("sampled %d sources, want 5", len(a))
	}
	seen := map[core.NodeID]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling is not deterministic: %v vs %v", a, b)
		}
		if seen[a[i]] {
			t.Fatalf("duplicate source %d in %v", a[i], a)
		}
		seen[a[i]] = true
	}
	if got := sampleSources(3, 10, 1); len(got) != 3 {
		t.Fatalf("sample larger than n not clamped: %v", got)
	}
}
