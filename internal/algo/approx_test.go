package algo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// checkApproxVector asserts the (1+eps) sandwich d* <= d <= (1+eps)·d*
// against a reference distance vector, including agreement on
// reachability.
func checkApproxVector(t *testing.T, tag string, got, want []int64, eps float64) {
	t.Helper()
	for v := range want {
		switch {
		case want[v] == Unreached:
			if got[v] != Unreached {
				t.Fatalf("%s: v=%d reachable (%d) but reference says Unreached", tag, v, got[v])
			}
		case got[v] == Unreached:
			t.Fatalf("%s: v=%d Unreached but reference says %d", tag, v, want[v])
		case got[v] < want[v]:
			t.Fatalf("%s: v=%d distance %d undershoots true %d", tag, v, got[v], want[v])
		case float64(got[v]) > (1+eps)*float64(want[v]):
			t.Fatalf("%s: v=%d distance %d exceeds (1+%v)·%d", tag, v, got[v], eps, want[v])
		}
	}
}

// TestApproxSSSPWithinEpsProperty is the approximation-ratio property
// test: on random weighted graphs, for eps in {0.5, 0.1}, every
// ApproxSSSPKernel distance d must satisfy d* <= d <= (1+eps)·d*
// against the sequential BellmanFordRef oracle. The hub rate is pinned
// to 1 (every vertex a hub) because a hard assertion deserves the
// deterministic window-compression guarantee, not a sampling gamble —
// the auto rate dips just below 1 at several of these sizes. The
// sampled-hub path is covered by TestApproxSSSPSampledHubs; CI runs
// this under -race.
func TestApproxSSSPWithinEpsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1202))
	for _, eps := range []float64{0.5, 0.1} {
		for trial := 0; trial < 6; trial++ {
			n := 5 + rng.Intn(30)
			p := []float64{0.1, 0.25, 0.6}[trial%3]
			maxW := int64(1 + rng.Intn(60))
			seed := rng.Int63()
			g := graph.RandomGNPWeighted(n, p, maxW, seed)
			src := core.NodeID(rng.Intn(n))
			k := NewApproxSSSPKernel(src, hopset.Params{Eps: eps, HubRate: 1, Seed: seed + 1})
			stats, err := runOn(g, k)
			if err != nil {
				t.Fatalf("eps=%v trial %d (n=%d p=%.2f seed=%d): %v", eps, trial, n, p, seed, err)
			}
			if g.NumEdges() > 0 && stats.TotalMsgs == 0 {
				t.Fatalf("eps=%v trial %d: approx SSSP routed no messages", eps, trial)
			}
			want := BellmanFordRef(g, src)
			checkApproxVector(t, "approx-sssp", k.Dist(), want, eps)
		}
	}
}

// TestApproxExactModeMatchesBellmanFord: with eps = 0 no rounding
// happens, and at the all-hubs rate the pipeline must be exactly
// Bellman-Ford.
func TestApproxExactModeMatchesBellmanFord(t *testing.T) {
	g := graph.RandomGNPWeighted(18, 0.25, 40, 99)
	k := NewApproxSSSPKernel(3, hopset.Params{HubRate: 1})
	runKernel(t, g, k)
	dist, want := k.Dist(), BellmanFordRef(g, 3)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("eps=0 dist[%d] = %d, want exact %d", v, dist[v], want[v])
		}
	}
}

// TestApproxTinyEpsIsExact: an eps whose reciprocal overflows float64
// asks for near-exact rounding, so at the all-hubs rate the pipeline
// must return Bellman-Ford exactly — not the 1-significant-bit grid an
// overflowed SigBitsFor would have rounded every weight to.
func TestApproxTinyEpsIsExact(t *testing.T) {
	g := graph.RandomGNPWeighted(48, 0.15, 30, 7)
	k := NewApproxSSSPKernel(0, hopset.Params{Eps: 5e-309, HubRate: 1})
	runKernel(t, g, k)
	dist, want := k.Dist(), BellmanFordRef(g, 0)
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("eps=5e-309 dist[%d] = %d, want exact %d", v, dist[v], want[v])
		}
	}
}

// TestApproxKSourceWithinEps: the multi-source kernel must satisfy the
// same sandwich per source row, on one warm session shared with the
// construction stage.
func TestApproxKSourceWithinEps(t *testing.T) {
	const eps = 0.1
	g := graph.RandomGNPWeighted(24, 0.2, 25, 7)
	sources := []core.NodeID{0, 5, 23}
	k := NewApproxKSourceKernel(sources, hopset.Params{Eps: eps, HubRate: 1, Seed: 2})
	runKernel(t, g, k)
	for j, src := range sources {
		checkApproxVector(t, "approx-ksource", k.Dist()[j], BellmanFordRef(g, src), eps)
	}
}

// TestApproxSSSPSampledHubs exercises the sampled-hub (rate < 1) path
// at a size where the property-test default would be all-hubs: the
// lower bound d >= d* is structural (shortcuts carry genuine path
// weights) and must hold for any sample; the (1+eps) upper bound is a
// with-high-probability guarantee, pinned here for a fixed seed.
func TestApproxSSSPSampledHubs(t *testing.T) {
	const eps = 0.5
	g := graph.RandomGNPWeighted(96, 0.08, 30, 4242)
	params := hopset.Params{Eps: eps, HubRate: 0.35, Seed: 17}
	k := NewApproxSSSPKernel(0, params)
	s, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	if hs := k.Hopset(); hs == nil || len(hs.Hubs) == 0 || len(hs.Hubs) == g.N {
		t.Fatalf("expected a proper hub subsample, got %v", k.Hopset())
	}
	checkApproxVector(t, "sampled", k.Dist(), BellmanFordRef(g, 0), eps)
}

// TestApproxSSSPUsesFewerRoundsThanAPSP: the hopset swap is a
// round-count optimization, and with a sampled hub set it pays from a
// few hundred vertices on. Asserted on G(512, 0.05) with weights 1..20
// and hub rate 0.1 — the benchmark's graph shape — where both sides
// stop their loops early: 96 rounds against exact APSP's 107, on a fifth
// of the words. Since the squarings run by the cube partition, exact
// APSP wins on rounds at n = 256 (74 against 80 on this graph seed) and
// the two sit on the crossover at n = 384 (graph seeds 1..12: approx
// ahead by -10..10 rounds); at n = 512 approx is ahead by 8..21 rounds
// on every one of those seeds.
//
// Below the crossover the trend is asserted instead, in the sparse-hub
// regime (β = 2⌈√n⌉, about 1.5√n hubs) on G(n, 0.12) with weights
// 1..32: at n = 48 and 96 the approximate pipeline moves strictly fewer
// words than exact APSP, and its rounds as a share of exact APSP's fall
// as n doubles.
func TestApproxSSSPUsesFewerRoundsThanAPSP(t *testing.T) {
	g := graph.RandomGNPWeighted(512, 0.05, 20, 11)
	exact := runKernel(t, g, NewAPSPKernel())
	approx := runKernel(t, g, NewApproxSSSPKernel(0, hopset.Params{Eps: 0.5, HubRate: 0.1, Seed: 3}))
	if approx.Rounds >= exact.Rounds || approx.TotalMsgs >= exact.TotalMsgs {
		t.Fatalf("approx SSSP took %d rounds and %d words, exact APSP %d and %d — hopset bought nothing",
			approx.Rounds, approx.TotalMsgs, exact.Rounds, exact.TotalMsgs)
	}

	prev := 0.0
	for _, n := range []int{48, 96} {
		g := graph.RandomGNPWeighted(n, 0.12, 32, 5)
		rootN := math.Sqrt(float64(n))
		params := hopset.Params{
			Beta:    2 * int(math.Ceil(rootN)),
			Eps:     0.5,
			HubRate: math.Min(1, 1.5*rootN/float64(n)),
			Seed:    7,
		}
		exact := runKernel(t, g, NewAPSPKernel())
		approx := runKernel(t, g, NewApproxSSSPKernel(0, params))
		if approx.TotalMsgs >= exact.TotalMsgs {
			t.Errorf("n=%d: approx SSSP moved %d words, exact APSP %d — the hopset must win on words",
				n, approx.TotalMsgs, exact.TotalMsgs)
		}
		ratio := float64(approx.Rounds) / float64(exact.Rounds)
		if prev != 0 && ratio >= prev {
			t.Errorf("n=%d: approx/exact rounds %d/%d = %.3f, not below %.3f at the smaller size",
				n, approx.Rounds, exact.Rounds, ratio, prev)
		}
		prev = ratio
	}
}

// TestApproxRejectsBadInput mirrors the other kernels' validation:
// out-of-range sources and invalid hopset parameters must fail fast.
func TestApproxRejectsBadInput(t *testing.T) {
	wg := graph.Path(4).WithUniformRandomWeights(1, 5)
	if _, err := runOn(wg, NewApproxSSSPKernel(9, hopset.Params{})); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := runOn(wg, NewApproxSSSPKernel(0, hopset.Params{Eps: -1})); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := runOn(wg, NewApproxKSourceKernel([]core.NodeID{0, -1}, hopset.Params{})); err == nil {
		t.Error("negative source accepted")
	}
}
