package algo

import (
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// hopLimitedRef computes h-hop-limited distances by h rounds of Jacobi
// relaxation from each source: after pass p, dist[v] is the cheapest
// walk of at most p edges. A sequential oracle for HopLimitedKernel.
func hopLimitedRef(g *graph.CSR, h int) [][]int64 {
	out := make([][]int64, g.N)
	for src := 0; src < g.N; src++ {
		dist := make([]int64, g.N)
		next := make([]int64, g.N)
		for i := range dist {
			dist[i] = core.InfWeight
		}
		dist[src] = 0
		for p := 0; p < h; p++ {
			copy(next, dist)
			for u := 0; u < g.N; u++ {
				if dist[u] >= core.InfWeight {
					continue
				}
				cols, ws := g.Row(core.NodeID(u))
				for i, v := range cols {
					if cand := dist[u] + ws[i]; cand < next[v] {
						next[v] = cand
					}
				}
			}
			dist, next = next, dist
		}
		row := make([]int64, g.N)
		for i, d := range dist {
			if d >= core.InfWeight {
				row[i] = Unreached
			} else {
				row[i] = d
			}
		}
		out[src] = row
	}
	return out
}

// TestAPSPPropertyVsBellmanFord is the property test demanded by the
// matmul subsystem: on random G(n,p) instances across densities, every
// row of the distance-product APSP must equal the engine Bellman-Ford
// run (and its sequential reference) from that row's source.
func TestAPSPPropertyVsBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(20200803)) // PODC'20 vintage
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(22)
		p := []float64{0.08, 0.2, 0.45, 0.9}[trial%4]
		seed := rng.Int63()
		g := graph.RandomGNP(n, p, seed).WithUniformRandomWeights(seed+1, 1+int64(rng.Intn(20)))
		k := NewAPSPKernel()
		stats, err := runOn(g, k)
		if err != nil {
			t.Fatalf("trial %d (n=%d p=%.2f seed=%d): APSP: %v", trial, n, p, seed, err)
		}
		dist := k.Dist()
		if g.NumEdges() > 0 && stats.TotalMsgs == 0 {
			t.Fatalf("trial %d: APSP routed no messages on a non-empty graph", trial)
		}
		for src := 0; src < n; src++ {
			want := BellmanFordRef(g, core.NodeID(src))
			for v := 0; v < n; v++ {
				if dist[src][v] != want[v] {
					t.Fatalf("trial %d (n=%d p=%.2f seed=%d): dist[%d][%d] = %d, BellmanFordRef = %d",
						trial, n, p, seed, src, v, dist[src][v], want[v])
				}
			}
		}
		// One source also against the engine Bellman-Ford, so the two
		// distributed pipelines are checked against each other.
		src := core.NodeID(rng.Intn(n))
		bf := NewBellmanFordKernel(src)
		if _, err := runOn(g, bf); err != nil {
			t.Fatalf("trial %d: BellmanFord: %v", trial, err)
		}
		for v := 0; v < n; v++ {
			if dist[src][v] != bf.Dist()[v] {
				t.Fatalf("trial %d: dist[%d][%d] = %d, engine BellmanFord = %d",
					trial, src, v, dist[src][v], bf.Dist()[v])
			}
		}
	}
}

func TestHopLimitedDistancesMatchesRef(t *testing.T) {
	g := graph.RandomGNP(18, 0.18, 77).WithUniformRandomWeights(78, 9)
	for _, h := range []int{0, 1, 2, 3, 5, 17} {
		k := NewHopLimitedKernel(h)
		if _, err := runOn(g, k); err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		got, want := k.Dist(), hopLimitedRef(g, h)
		for u := 0; u < g.N; u++ {
			for v := 0; v < g.N; v++ {
				if got[u][v] != want[u][v] {
					t.Fatalf("h=%d: d[%d][%d] = %d, want %d", h, u, v, got[u][v], want[u][v])
				}
			}
		}
	}
}

// TestHopLimitedConvergesToAPSP: once h reaches n-1 the truncation is
// vacuous and hop-limited distances are exact.
func TestHopLimitedConvergesToAPSP(t *testing.T) {
	g := graph.Path(9).WithUniformRandomWeights(5, 7)
	hopLimited := func(h int) [][]int64 {
		k := NewHopLimitedKernel(h)
		runKernel(t, g, k)
		return k.Dist()
	}
	apsp := NewAPSPKernel()
	runKernel(t, g, apsp)
	exact, hl := apsp.Dist(), hopLimited(g.N-1)
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if hl[u][v] != exact[u][v] {
				t.Fatalf("d[%d][%d] = %d, want %d", u, v, hl[u][v], exact[u][v])
			}
		}
	}
	// On a path, the hop horizon genuinely binds below n-1: vertex 0
	// cannot see vertex 8 within 3 hops.
	short := hopLimited(3)
	if short[0][8] != Unreached {
		t.Fatalf("3-hop d[0][8] = %d, want Unreached", short[0][8])
	}
	if short[0][2] != exact[0][2] {
		t.Fatalf("3-hop d[0][2] = %d, want exact %d", short[0][2], exact[0][2])
	}
}

// TestHopLimitedClampsOversizedBound: h beyond n-1 cannot change the
// answer (the reflexive power has stabilized), so it must neither alter
// results nor spend extra engine products.
func TestHopLimitedClampsOversizedBound(t *testing.T) {
	g := graph.RandomGNP(14, 0.25, 31).WithUniformRandomWeights(32, 6)
	exactK, hugeK := NewHopLimitedKernel(g.N-1), NewHopLimitedKernel(1<<30)
	exactStats, hugeStats := runKernel(t, g, exactK), runKernel(t, g, hugeK)
	exact, huge := exactK.Dist(), hugeK.Dist()
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if huge[u][v] != exact[u][v] {
				t.Fatalf("d[%d][%d] = %d, want %d", u, v, huge[u][v], exact[u][v])
			}
		}
	}
	if hugeStats.Rounds != exactStats.Rounds {
		t.Fatalf("oversized h ran %d rounds, clamp to n-1 should give %d",
			hugeStats.Rounds, exactStats.Rounds)
	}
}

func TestAPSPRejectsBadInput(t *testing.T) {
	if _, err := runOn(graph.Path(4).WithUniformRandomWeights(1, 3), NewHopLimitedKernel(-1)); err == nil {
		t.Fatal("HopLimitedKernel accepted a negative hop bound")
	}
}
