// Package hopset constructs (β, ε)-hopsets — the structure behind the
// Dory-Parter poly(log log n)-round shortest-path pipeline. A hopset H
// for a weighted graph G is a set of weighted shortcut edges such that
// β-hop-limited distances in G ∪ H already approximate true distances:
//
//	d_G(u,v) <= d^(β)_{G∪H}(u,v) <= (1+ε) · d_G(u,v)
//
// The construction here is the single-level sampling scheme computed
// with the repo's own machinery ("hopsets from sparse products"):
// round the edge weights up to a few significant bits (internal/core's
// RoundUpSig — this is where the ε enters, and it is what lets the
// paper pack values into o(log n)-bit fields), sample a hub set,
// compute β-hop-limited distances from every hub by β sparse-dense
// (min,+) products on the round engine, and emit a symmetric star of
// shortcut edges between every vertex and every hub it can reach
// within β hops. Each shortcut carries a genuine (rounded-) path
// weight, so augmented distances never undershoot; the upper bound
// holds deterministically whenever every vertex is a hub (HubRate 1;
// the default auto rate approaches this for small n) and
// β >= ceil((n-1)/β) — the default β = ceil(sqrt(n-1)) + 1 regime —
// and with high probability over the sampling seed otherwise.
//
// ConstructKernel runs the products distributedly as a clique session
// kernel (one engine pass per hop after the first, which every node
// reads off its own row); ConstructRef is the
// sequential oracle. Augment merges the shortcuts into an adjacency
// matrix via the entrywise (min,+) sum, yielding the matrix the
// approximate shortest-path kernels in internal/algo relax over.
package hopset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// Params configures a hopset construction. The zero value selects the
// defaults for the target graph: β = DefaultBeta(n), exact weights
// (no rounding), the auto hub rate, and seed 0.
type Params struct {
	// Beta is the hop bound β: shortcut edges carry β-hop-limited
	// distances, and the (1+ε) guarantee speaks about β-hop distances
	// in the augmented graph. 0 selects DefaultBeta(n); negative values
	// are rejected.
	Beta int
	// Eps is the approximation slack ε >= 0: edge weights are rounded
	// up to core.SigBitsFor(Eps) significant bits before the
	// construction, inflating every path weight by at most (1+ε).
	// 0 keeps weights exact (an (β, 0)-hopset).
	Eps float64
	// HubRate is the independent per-vertex sampling probability of the
	// hub set, in [0, 1]. 0 selects the auto rate
	// min(1, 2·ln(n+1)/Beta), which reaches 1 — every vertex a hub,
	// and with it the deterministic guarantee — for small n.
	HubRate float64
	// Seed drives the hub sampling; the same (graph, Params) pair
	// always yields the identical hopset.
	Seed int64
}

// DefaultBeta returns the default hop bound for an n-vertex graph:
// ceil(sqrt(n-1)) + 1 (at least 1). This is the single-level hopset
// regime — it satisfies β >= ceil((n-1)/β) + 1, so β relaxation steps
// over the augmented graph cover every window decomposition of a
// shortest path with one hop to spare.
func DefaultBeta(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(n-1)))) + 1
}

// withDefaults validates p and resolves the zero-value fields for an
// n-vertex graph.
func (p Params) withDefaults(n int) (Params, error) {
	if p.Beta < 0 {
		return p, fmt.Errorf("hopset: negative Beta %d", p.Beta)
	}
	if p.Eps < 0 || math.IsNaN(p.Eps) {
		return p, fmt.Errorf("hopset: Eps %v outside [0, inf)", p.Eps)
	}
	if p.HubRate < 0 || p.HubRate > 1 || math.IsNaN(p.HubRate) {
		return p, fmt.Errorf("hopset: HubRate %v outside [0, 1]", p.HubRate)
	}
	if p.Beta == 0 {
		p.Beta = DefaultBeta(n)
	}
	if p.HubRate == 0 {
		p.HubRate = math.Min(1, 2*math.Log(float64(n+1))/float64(p.Beta))
	}
	return p, nil
}

// Hopset is a constructed (β, ε)-hopset: the sampled hubs, the
// symmetric shortcut star, and the rounded base adjacency the
// shortcuts were computed on (the matrix Augment pairs them with).
type Hopset struct {
	// Beta is the resolved hop bound the construction used.
	Beta int
	// Eps is the approximation slack the weights were rounded for.
	Eps float64
	// Hubs lists the sampled hub vertices in increasing order.
	Hubs []core.NodeID
	// Shortcuts is the n x n symmetric (min,+) shortcut matrix: entry
	// (v, s) is the β-hop-limited rounded distance between v and hub s
	// (absent when unreachable within β hops; diagonal entries are
	// omitted).
	Shortcuts *matmul.Matrix
	// Base is the reflexive (min,+) adjacency matrix of the input
	// graph after ε-rounding — the matrix the shortcut weights are
	// path weights of.
	Base *matmul.Matrix
}

// Augment merges a hopset's shortcut edges into m via the entrywise
// (min,+) sum: parallel edges keep the cheaper weight. Passing
// hs.Base yields the augmented adjacency the approximate shortest-path
// kernels relax over; any other same-size (min,+) matrix (e.g. an
// already-augmented one) works too.
func Augment(m *matmul.Matrix, hs *Hopset) (*matmul.Matrix, error) {
	return matmul.Add(m, hs.Shortcuts)
}

// roundedBase validates g and builds its reflexive (min,+) adjacency
// with every arc weight rounded up to the significant-bit grid for
// eps. Unweighted graphs are treated as unit-weighted; negative
// weights are rejected.
func roundedBase(g *graph.CSR, eps float64) (*matmul.Matrix, error) {
	gw := g.WithUnitWeights()
	for _, w := range gw.Weights {
		if w < 0 {
			return nil, fmt.Errorf("hopset: negative weight %d", w)
		}
	}
	base, err := matmul.FromGraph(gw, core.MinPlus(), true)
	if err != nil {
		return nil, err
	}
	if sig := core.SigBitsFor(eps); sig > 0 {
		// FromGraph allocates Vals freshly, so in-place rounding is safe.
		for i, v := range base.Vals {
			base.Vals[i] = core.RoundUpSig(v, sig)
		}
	}
	return base, nil
}

// sampleHubs draws the hub set: each vertex independently with
// probability rate from a PRNG seeded with seed, in increasing vertex
// order (so the result is sorted and deterministic per seed).
func sampleHubs(n int, rate float64, seed int64) []core.NodeID {
	if rate >= 1 {
		hubs := make([]core.NodeID, n)
		for v := range hubs {
			hubs[v] = core.NodeID(v)
		}
		return hubs
	}
	rng := rand.New(rand.NewSource(seed))
	var hubs []core.NodeID
	for v := 0; v < n; v++ {
		if rng.Float64() < rate {
			hubs = append(hubs, core.NodeID(v))
		}
	}
	return hubs
}

// assemble packs the pieces into a Hopset, writing the symmetric
// shortcut star straight into CSR from the final hub-distance columns
// (d[v][j] = β-hop rounded distance between v and hub j). A non-hub row
// v holds (v, hubs[j]) for every finite d[v][j], already in column
// order because hubs is sorted. The row of hub v = hubs[j_v] is one scan
// over u != v keeping min(d[u][j_v], d[v][j_u]) where finite, the
// second term only when u is hub j_u: the arc (v, u) is the star edge
// from v's own column or from u's, whichever is cheaper.
func assemble(p Params, hubs []core.NodeID, base *matmul.Matrix, d *matmul.Dense) *Hopset {
	n := base.N
	hubIdx := make([]int, n) // j with hubs[j] = v, or -1
	for v := range hubIdx {
		hubIdx[v] = -1
	}
	for j, s := range hubs {
		hubIdx[s] = j
	}
	finite := 0
	for _, w := range d.Vals {
		if w < core.InfWeight {
			finite++
		}
	}
	sc := &matmul.Matrix{
		N:    n,
		Sr:   base.Sr,
		Rows: make([]int32, 1, n+1),
		Cols: make([]core.NodeID, 0, 2*finite),
		Vals: make([]int64, 0, 2*finite),
	}
	for v := 0; v < n; v++ {
		row := d.Row(core.NodeID(v))
		if jv := hubIdx[v]; jv < 0 {
			for j, w := range row {
				if w < core.InfWeight {
					sc.Cols = append(sc.Cols, hubs[j])
					sc.Vals = append(sc.Vals, w)
				}
			}
		} else {
			for u := 0; u < n; u++ {
				w := d.Vals[u*d.K+jv]
				if ju := hubIdx[u]; ju >= 0 {
					w = min(w, row[ju])
				}
				if w < core.InfWeight && u != v {
					sc.Cols = append(sc.Cols, core.NodeID(u))
					sc.Vals = append(sc.Vals, w)
				}
			}
		}
		sc.Rows = append(sc.Rows, int32(len(sc.Cols)))
	}
	return &Hopset{Beta: p.Beta, Eps: p.Eps, Hubs: hubs, Shortcuts: sc, Base: base}
}

// ConstructRef is the sequential oracle for the hopset construction:
// identical sampling and rounding, with the β limited-hop (min,+)
// products computed by the sequential matmul references instead of
// engine passes. ConstructKernel (the distributed construction) must
// agree with it bit for bit.
func ConstructRef(g *graph.CSR, p Params) (*Hopset, error) {
	if g == nil {
		return nil, fmt.Errorf("hopset: ConstructRef requires a graph")
	}
	p, err := p.withDefaults(g.N)
	if err != nil {
		return nil, err
	}
	base, err := roundedBase(g, p.Eps)
	if err != nil {
		return nil, err
	}
	hubs := sampleHubs(g.N, p.HubRate, p.Seed)
	d := matmul.Indicator(g.N, hubs, core.MinPlus())
	if len(hubs) > 0 {
		for i := 0; i < p.Beta; i++ {
			if d, err = matmul.MulDenseRef(base, d); err != nil {
				return nil, err
			}
		}
	}
	return assemble(p, hubs, base, d), nil
}
