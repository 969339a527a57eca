package hopset

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// jacobiAug computes t-hop-limited distances from src over an
// augmented (min,+) matrix by t Jacobi passes — an independent oracle
// for the hopset property checks (it never touches the matmul product
// code the construction itself uses).
func jacobiAug(m *matmul.Matrix, src core.NodeID, t int) []int64 {
	dist := make([]int64, m.N)
	next := make([]int64, m.N)
	for i := range dist {
		dist[i] = core.InfWeight
	}
	dist[src] = 0
	for p := 0; p < t; p++ {
		copy(next, dist)
		for u := 0; u < m.N; u++ {
			if dist[u] >= core.InfWeight {
				continue
			}
			cols, vals := m.Row(core.NodeID(u))
			for i, v := range cols {
				if cand := dist[u] + vals[i]; cand < next[v] {
					next[v] = cand
				}
			}
		}
		dist, next = next, dist
	}
	return dist
}

// bellmanFordRef is the plain sequential shortest-path oracle on the
// raw input graph (duplicated from internal/algo, which this package
// cannot import without a cycle).
func bellmanFordRef(g *graph.CSR, src core.NodeID) []int64 {
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = core.InfWeight
	}
	dist[src] = 0
	for pass := 0; pass < g.N-1; pass++ {
		changed := false
		for v := 0; v < g.N; v++ {
			if dist[v] >= core.InfWeight {
				continue
			}
			cols, ws := g.Row(core.NodeID(v))
			for i, u := range cols {
				if cand := dist[v] + ws[i]; cand < dist[u] {
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

// matEqual compares the structural fields of two sparse matrices
// (reflect.DeepEqual is unusable on whole matrices: the embedded
// Semiring carries func fields, which are never deeply equal).
func matEqual(a, b *matmul.Matrix) bool {
	return a.N == b.N && a.Sr.Name == b.Sr.Name &&
		reflect.DeepEqual(a.Rows, b.Rows) &&
		reflect.DeepEqual(a.Cols, b.Cols) &&
		reflect.DeepEqual(a.Vals, b.Vals)
}

// construct runs a ConstructKernel with parameters p on a fresh session
// over g and returns the hopset and the session's engine stats.
func construct(g *graph.CSR, p Params) (*Hopset, engine.Stats, error) {
	s, err := clique.New(g)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	defer s.Close()
	k := NewConstructKernel(p)
	if err := s.Run(context.Background(), k); err != nil {
		return nil, engine.Stats{}, err
	}
	return k.Hopset(), s.Stats().Engine, nil
}

// TestConstructMatchesRef: the distributed construction must agree bit
// for bit with the sequential oracle — same hubs, same shortcut
// matrix, same rounded base — across densities, epsilons, and hub
// rates (including sampled ones).
func TestConstructMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.Intn(20)
		p := []float64{0.1, 0.3, 0.7}[trial%3]
		seed := rng.Int63()
		g := graph.RandomGNPWeighted(n, p, 30, seed)
		params := Params{
			Eps:     []float64{0, 0.5, 0.1}[trial%3],
			HubRate: []float64{0, 0.4, 1}[trial%3],
			Seed:    seed + 7,
		}
		want, err := ConstructRef(g, params)
		if err != nil {
			t.Fatalf("trial %d: ConstructRef: %v", trial, err)
		}
		got, stats, err := construct(g, params)
		if err != nil {
			t.Fatalf("trial %d: ConstructKernel: %v", trial, err)
		}
		if got.Beta != want.Beta || got.Eps != want.Eps {
			t.Fatalf("trial %d: params diverged: got (%d,%v), want (%d,%v)",
				trial, got.Beta, got.Eps, want.Beta, want.Eps)
		}
		if !reflect.DeepEqual(got.Hubs, want.Hubs) {
			t.Fatalf("trial %d: hubs diverged: %v vs %v", trial, got.Hubs, want.Hubs)
		}
		if !matEqual(got.Shortcuts, want.Shortcuts) {
			t.Fatalf("trial %d: shortcut matrices diverged", trial)
		}
		if !matEqual(got.Base, want.Base) {
			t.Fatalf("trial %d: base matrices diverged", trial)
		}
		if err := got.Shortcuts.Validate(); err != nil {
			t.Fatalf("trial %d: invalid shortcut matrix: %v", trial, err)
		}
		if g.NumEdges() > 0 && len(want.Hubs) > 0 && stats.TotalMsgs == 0 {
			t.Fatalf("trial %d: distributed construction routed no messages", trial)
		}
	}
}

// starRef is the shortcut star by its definition, independent of
// assemble: a dense n x n min-fold of both arcs (v, hubs[j]) and
// (hubs[j], v) for every finite off-diagonal d[v][j], read back as CSR.
func starRef(n int, hubs []core.NodeID, d *matmul.Dense) *matmul.Matrix {
	fold := make([]int64, n*n)
	for i := range fold {
		fold[i] = core.InfWeight
	}
	for v := 0; v < n; v++ {
		for j, s := range hubs {
			w := d.At(core.NodeID(v), j)
			if w >= core.InfWeight || int(s) == v {
				continue
			}
			fold[v*n+int(s)] = min(fold[v*n+int(s)], w)
			fold[int(s)*n+v] = min(fold[int(s)*n+v], w)
		}
	}
	m := &matmul.Matrix{N: n, Sr: core.MinPlus(), Rows: make([]int32, 1, n+1)}
	for v := 0; v < n; v++ {
		for u, w := range fold[v*n : (v+1)*n] {
			if w < core.InfWeight {
				m.Cols = append(m.Cols, core.NodeID(u))
				m.Vals = append(m.Vals, w)
			}
		}
		m.Rows = append(m.Rows, int32(len(m.Cols)))
	}
	return m
}

// TestShortcutStarMatchesDenseFold: assemble's row-by-row star is the
// dense min-fold of both arcs per finite off-diagonal hub distance, bit
// for bit, at the auto, a sampled and the all-hubs rate.
func TestShortcutStarMatchesDenseFold(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := graph.RandomGNPWeighted(90, 0.06, 30, seed)
		for _, rate := range []float64{0, 0.3, 1} {
			hs, err := ConstructRef(g, Params{HubRate: rate, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			d := matmul.Indicator(g.N, hs.Hubs, core.MinPlus())
			for i := 0; i < hs.Beta && len(hs.Hubs) > 0; i++ {
				if d, err = matmul.MulDenseRef(hs.Base, d); err != nil {
					t.Fatal(err)
				}
			}
			if err := hs.Shortcuts.Validate(); err != nil {
				t.Fatalf("seed %d rate %v: %v", seed, rate, err)
			}
			if !matEqual(hs.Shortcuts, starRef(g.N, hs.Hubs, d)) {
				t.Errorf("seed %d rate %v: star differs from the dense min-fold", seed, rate)
			}
		}
	}
}

// TestRestoreRejectsBadHubList: assemble indexes the star by hub, so a
// restored state whose hub list is not strictly ascending in [0, n), one
// hub per distance column, is refused instead of assembling a wrong star
// or panicking, while the same state with its own hubs restores to the
// finished hopset.
func TestRestoreRejectsBadHubList(t *testing.T) {
	g := graph.RandomGNPWeighted(12, 0.4, 9, 3)
	k := NewConstructKernel(Params{HubRate: 1})
	s, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	good := k.hubs
	for name, hubs := range map[string][]core.NodeID{
		"own":        good,
		"descending": {3, 1},
		"repeated":   {1, 1},
		"outside":    {0, 12},
		"negative":   {-1, 4},
		"too few":    {1, 4},
	} {
		k.hubs = hubs
		var blob bytes.Buffer
		if err := k.SnapshotState(&blob); err != nil {
			t.Fatal(err)
		}
		fresh := NewConstructKernel(Params{HubRate: 1})
		err := fresh.RestoreState(&blob)
		if name == "own" {
			if err != nil || !matEqual(fresh.Hopset().Shortcuts, k.Hopset().Shortcuts) {
				t.Errorf("own hub list: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s hub list %v restored", name, hubs)
		}
	}
}

// TestConstructStopsAtTheFixpoint: the kernel leaves its hop-product
// loop at the first product that changes no hub column, and the hopset
// is still ConstructRef's — which always runs all β products — bit for
// bit. How much that skips is the input's doing: on dense, lightly
// weighted random graphs some of β, on a clique everything after the
// first product and the one confirming it, on a path (unit or weighted)
// nothing, because every one of the β products still pushes some hub's
// column one hop further. The first product is local and runs no pass,
// so the products are the passes plus one.
func TestConstructStopsAtTheFixpoint(t *testing.T) {
	const n = 26
	beta := DefaultBeta(n)
	for name, tc := range map[string]struct {
		g          *graph.CSR
		p          Params
		minP, maxP int
	}{
		"gnp-all-hubs":  {graph.RandomGNPWeighted(n, 0.4, 4, 1), Params{HubRate: 1}, 2, beta - 1},
		"gnp-sampled":   {graph.RandomGNPWeighted(n, 0.4, 4, 2), Params{Eps: 0.5, HubRate: 0.4, Seed: 9}, 2, beta - 1},
		"gnp-default":   {graph.RandomGNPWeighted(n, 0.4, 4, 3), Params{Eps: 0.1}, 2, beta - 1},
		"unit-path":     {graph.Path(n), Params{}, beta, beta},
		"weighted-path": {graph.Path(n).WithUniformRandomWeights(5, 12), Params{Eps: 0.25}, beta, beta},
		"clique":        {graph.Clique(n), Params{}, 2, 3},
	} {
		want, err := ConstructRef(tc.g, tc.p)
		if err != nil {
			t.Fatalf("%s: ConstructRef: %v", name, err)
		}
		s, err := clique.New(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		k := NewConstructKernel(tc.p)
		err = s.Run(context.Background(), k)
		products := s.Stats().Runs + 1
		s.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := k.Hopset()
		if got.Beta != beta || !reflect.DeepEqual(got.Hubs, want.Hubs) ||
			!matEqual(got.Shortcuts, want.Shortcuts) || !matEqual(got.Base, want.Base) {
			t.Errorf("%s: hopset differs from ConstructRef's %d products", name, beta)
		}
		if products < tc.minP || products > tc.maxP {
			t.Errorf("%s: construction ran %d products, want %d..%d of β = %d", name, products, tc.minP, tc.maxP, beta)
		}
	}
}

// TestHopProductsStreamOnlyWhatChanged: with every vertex of a unit
// path a hub, hop product t changes exactly the hub columns at distance
// t from each node — at most two entries per row, one wire word — so
// every engine product streams exactly one data word per (receiver,
// sender) pair, all of them in round 0, the first as much as the last.
// Re-sending whole rows would stream rows of 2t+1 entries, growing with
// t. The first product is local and runs no pass, and no product asks
// for a row: every word is a data word or the vote's.
func TestHopProductsStreamOnlyWhatChanged(t *testing.T) {
	const n, beta = 64, 16 // beta < n/2: every row still changes at every product
	g := graph.Path(n)
	var passes [][]uint64 // words per round, one slice per pass
	s, err := clique.New(g, clique.WithRoundHook(func(rs engine.RoundStats) {
		if rs.Round == 0 {
			passes = append(passes, nil)
		}
		passes[len(passes)-1] = append(passes[len(passes)-1], rs.Msgs)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := NewConstructKernel(Params{Beta: beta, HubRate: 1})
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	if products := len(passes) + 1; products != beta {
		t.Fatalf("construction ran %d products, want β = %d", products, beta)
	}
	pairs := uint64(2 * (n - 1)) // one per arc of the path: receiver, sender
	for i, rounds := range passes {
		var words uint64
		for _, w := range rounds {
			words += w
		}
		// Every row changes, so a voting product (all but the last) also
		// carries a ballot from nodes 1..n-1 and node 0's verdict.
		vote := uint64(2 * (n - 1))
		if i == len(passes)-1 {
			vote = 0
		}
		if data := words - vote; rounds[0] != pairs || data != pairs {
			t.Errorf("product %d: %d words in round 0 and %d data words, want %d and %d",
				i+2, rounds[0], data, pairs, pairs)
		}
	}
}

// TestHopsetProperty verifies the defining (β, ε) guarantee end to
// end: β-hop-limited distances over the augmented matrix bracket the
// true distances, d* <= d^(β)_{G∪H} <= (1+ε)·d*, on random weighted
// graphs. The hub rate is pinned to 1: with every vertex a hub the
// bracketing is a deterministic window-compression argument, which is
// what a hard assertion needs (the auto rate dips just below 1 at
// several of these sizes; sampled rates are exercised by
// TestConstructMatchesRef and the sampled-hub test in internal/algo).
func TestHopsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	for _, eps := range []float64{0, 0.5, 0.1} {
		for trial := 0; trial < 4; trial++ {
			n := 5 + rng.Intn(25)
			seed := rng.Int63()
			g := graph.RandomGNPWeighted(n, 0.2, 50, seed)
			hs, err := ConstructRef(g, Params{Eps: eps, HubRate: 1, Seed: seed})
			if err != nil {
				t.Fatalf("eps=%v trial %d: %v", eps, trial, err)
			}
			aug, err := Augment(hs.Base, hs)
			if err != nil {
				t.Fatalf("eps=%v trial %d: Augment: %v", eps, trial, err)
			}
			for src := 0; src < n; src++ {
				want := bellmanFordRef(g, core.NodeID(src))
				got := jacobiAug(aug, core.NodeID(src), hs.Beta)
				for v := 0; v < n; v++ {
					if (want[v] >= core.InfWeight) != (got[v] >= core.InfWeight) {
						t.Fatalf("eps=%v n=%d seed=%d: reachability of %d->%d diverged (true %d, hopset %d)",
							eps, n, seed, src, v, want[v], got[v])
					}
					if want[v] >= core.InfWeight {
						continue
					}
					if got[v] < want[v] {
						t.Fatalf("eps=%v n=%d seed=%d: d(%d,%d) undershot: %d < true %d",
							eps, n, seed, src, v, got[v], want[v])
					}
					if float64(got[v]) > (1+eps)*float64(want[v]) {
						t.Fatalf("eps=%v n=%d seed=%d: d(%d,%d) = %d exceeds (1+eps)*%d",
							eps, n, seed, src, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestAugmentMergesCheaperEdge: augmentation is the entrywise (min,+)
// sum — a shortcut cheaper than an existing edge replaces it, an
// expensive one is ignored, and everything else is unioned.
func TestAugmentMergesCheaperEdge(t *testing.T) {
	g := graph.Path(4).WithUniformRandomWeights(1, 1) // unit path 0-1-2-3
	hs, err := ConstructRef(g, Params{Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := Augment(hs.Base, hs)
	if err != nil {
		t.Fatal(err)
	}
	if err := aug.Validate(); err != nil {
		t.Fatal(err)
	}
	// With every vertex a hub and beta = 2, the 2-hop shortcut 0-2 must
	// appear with weight 2 while the original unit edges stay at 1.
	if w := aug.At(0, 2); w != 2 {
		t.Fatalf("aug[0][2] = %d, want 2-hop shortcut weight 2", w)
	}
	if w := aug.At(0, 1); w != 1 {
		t.Fatalf("aug[0][1] = %d, want original unit edge", w)
	}
	if w := aug.At(0, 3); w != core.InfWeight {
		t.Fatalf("aug[0][3] = %d, want absent (3 hops > beta)", w)
	}
}

// TestConstructDegenerateInputs: tiny and edgeless graphs must
// construct valid (possibly empty) hopsets without error.
func TestConstructDegenerateInputs(t *testing.T) {
	for name, g := range map[string]*graph.CSR{
		"n1":       graph.Path(1),
		"edgeless": graph.RandomGNP(5, 0, 1).WithUnitWeights(),
		"pair":     graph.Path(2).WithUniformRandomWeights(2, 9),
	} {
		hs, _, err := construct(g, Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := hs.Shortcuts.Validate(); err != nil {
			t.Fatalf("%s: invalid shortcuts: %v", name, err)
		}
		if hs.Shortcuts.N != g.N || hs.Base.N != g.N {
			t.Fatalf("%s: dimension mismatch", name)
		}
	}
}

// TestNoHubsYieldsEmptyHopset: HubRate so low that sampling picks
// nothing must yield an empty (but valid) hopset without spending
// engine products.
func TestNoHubsYieldsEmptyHopset(t *testing.T) {
	g := graph.RandomGNPWeighted(12, 0.4, 9, 5)
	hs, stats, err := construct(g, Params{HubRate: 1e-12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hs.Hubs) != 0 || hs.Shortcuts.NNZ() != 0 {
		t.Fatalf("hubs=%v nnz=%d, want empty", hs.Hubs, hs.Shortcuts.NNZ())
	}
	if stats.TotalMsgs != 0 {
		t.Fatalf("empty construction routed %d messages", stats.TotalMsgs)
	}
}

// TestParamsValidation: invalid parameter values must be rejected with
// descriptive errors.
func TestParamsValidation(t *testing.T) {
	g := graph.Path(4).WithUnitWeights()
	for name, p := range map[string]Params{
		"negative beta": {Beta: -1},
		"negative eps":  {Eps: -0.5},
		"rate above 1":  {HubRate: 1.5},
		"negative rate": {HubRate: -0.1},
	} {
		if _, err := ConstructRef(g, p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := ConstructRef(nil, Params{}); err == nil {
		t.Error("nil graph accepted")
	}
	neg := &graph.CSR{N: 2, Offsets: []int32{0, 1, 2}, Targets: []core.NodeID{1, 0}, Weights: []int64{-3, -3}}
	if _, err := ConstructRef(neg, Params{}); err == nil {
		t.Error("negative weights accepted")
	}
}

// TestDefaultBeta pins the default hop bound regime: β(β-1) covers
// n-1, so ceil((n-1)/β) <= β-1 and β relaxation steps always have one
// hop to spare.
func TestDefaultBeta(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 100, 1024} {
		b := DefaultBeta(n)
		if b < 1 {
			t.Fatalf("DefaultBeta(%d) = %d < 1", n, b)
		}
		if n > 2 {
			if windows := (n - 2 + b) / b; windows+1 > b {
				t.Fatalf("DefaultBeta(%d) = %d: ceil((n-1)/beta)+1 = %d exceeds beta", n, b, windows+1)
			}
		}
	}
}
