package algo

import (
	"bytes"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// semiringAdjacency builds g's reflexive adjacency over sr; the boolean
// semiring sees g without its weights.
func semiringAdjacency(sr core.Semiring) func(*graph.CSR) (*matmul.Matrix, error) {
	return func(g *graph.CSR) (*matmul.Matrix, error) {
		if sr.Kind() == core.KindBoolOrAnd {
			g = &graph.CSR{N: g.N, Offsets: g.Offsets, Targets: g.Targets}
		}
		return matmul.FromGraph(g, sr, true)
	}
}

// powerRef is A^e by square-and-multiply over the sequential reference
// product, every step run: the fixed count the engine loop used to run.
func powerRef(t *testing.T, a *matmul.Matrix, e int) *matmul.Matrix {
	t.Helper()
	result, base := matmul.Identity(a.N, a.Sr), a
	var err error
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			if result, err = matmul.MulRef(result, base); err != nil {
				t.Fatal(err)
			}
		}
		if base, err = matmul.MulRef(base, base); err != nil {
			t.Fatal(err)
		}
	}
	return result
}

// sameMatrix compares two sparse matrices entry by entry.
func sameMatrix(a, b *matmul.Matrix) bool {
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if a.At(core.NodeID(i), core.NodeID(j)) != b.At(core.NodeID(i), core.NodeID(j)) {
				return false
			}
		}
	}
	return a.N == b.N
}

// TestEarlyStopMatchesFullCount: for every semiring and a few seeded
// random graphs, the power iteration and the relaxation — both of which
// stop at the first product that changes nothing — return exactly what
// the sequential reference products give when all of the fixed count
// are run: ceil(log2(n-1)) squarings, square-and-multiply for odd
// exponents (where the stop collapses the exponent to one multiply
// step), n-1 relaxations. The graphs are dense enough that both loops
// do stop early over every semiring, which the test requires so it
// cannot pass vacuously.
func TestEarlyStopMatchesFullCount(t *testing.T) {
	for _, sr := range core.AllSemirings() {
		powerStops, relaxStops := 0, 0
		for seed := int64(1); seed <= 3; seed++ {
			n := 20 + 6*int(seed)
			g := graph.RandomGNPWeighted(n, 0.2, 25, seed)
			a, err := semiringAdjacency(sr)(g)
			if err != nil {
				t.Fatal(err)
			}
			full, _ := squaringExponent(n)
			for _, e := range []int{full, n - 1, 13, 5} {
				k := &powerKernel{spec: powerSpec{
					name:      "power-under-test",
					adjacency: semiringAdjacency(sr),
					exponent:  func(int) (int, error) { return e, nil },
					project:   func(pw *matmul.Power) any { return pw.Result() },
				}}
				passes := runPasses(t, g, k)
				if got := k.Result().(*matmul.Matrix); !sameMatrix(got, powerRef(t, a, e)) {
					t.Errorf("%s seed %d: A^%d differs from the full-count reference", sr.Name, seed, e)
				}
				bound := bits.Len(uint(e)) - 1 + bits.OnesCount(uint(e)) - 1
				if passes > bound {
					t.Errorf("%s seed %d: A^%d took %d passes, bound %d", sr.Name, seed, e, passes, bound)
				}
				if passes < bound {
					powerStops++
				}
			}

			sources := []core.NodeID{0, core.NodeID(n / 2), core.NodeID(n - 1)}
			relax := &pipelineKernel{spec: pipelineSpec{
				name:      "relax-under-test",
				sources:   fixedSources(sources),
				relaxOver: func(any) (*matmul.Matrix, int, error) { return a, n - 1, nil },
				project:   func(_ []core.NodeID, rows [][]int64) any { return rows },
			}}
			// The first product is local and runs no pass.
			products := runPasses(t, g, relax) + 1
			want := matmul.NewDense(n, len(sources), sr)
			for j, src := range sources {
				want.Row(src)[j] = sr.One
			}
			for i := 0; i < n-1; i++ {
				if want, err = matmul.MulDenseRef(a, want); err != nil {
					t.Fatal(err)
				}
			}
			rows := relax.Result().([][]int64)
			for j := range sources {
				for v := 0; v < n; v++ {
					if rows[j][v] != want.Row(core.NodeID(v))[j] {
						t.Fatalf("%s seed %d: relaxed column %d differs from %d reference products at vertex %d",
							sr.Name, seed, j, n-1, v)
					}
				}
			}
			if products > n-1 {
				t.Errorf("%s seed %d: relaxation ran %d products, bound %d", sr.Name, seed, products, n-1)
			}
			if products < n-1 {
				relaxStops++
			}
		}
		if powerStops == 0 || relaxStops == 0 {
			t.Errorf("%s: %d powers and %d relaxations stopped early; the test needs some of each", sr.Name, powerStops, relaxStops)
		}
	}
}

// TestPathSkipsNothingCliqueStopsAtOnce pins the two ends of the stop
// rule. On a path — unit or weighted — every product still extends some
// shortest path, so nothing is skipped: the squaring kernels run all
// ceil(log2(n-1)) squarings and Bellman-Ford-style relaxation (h = 1)
// from an end vertex all n-1 products, each but the last paying its
// vote — the first product local, the other n-2 engine passes. On a
// clique one product reaches everything and the next one confirms it.
// Both stay oracle-exact.
func TestPathSkipsNothingCliqueStopsAtOnce(t *testing.T) {
	const n = 33
	for name, g := range map[string]*graph.CSR{
		"unit-path":     graph.Path(n),
		"weighted-path": graph.Path(n).WithUniformRandomWeights(7, 9),
	} {
		apsp, closure := NewAPSPKernel(), NewTransitiveClosureKernel()
		for _, k := range []clique.Kernel{apsp, closure} {
			if got, want := runPasses(t, g, k), bits.Len(uint(n-2)); got != want {
				t.Errorf("%s: %s ran %d squarings, want all %d", name, k.Name(), got, want)
			}
		}
		ks := NewKSourceKernel([]core.NodeID{0}, 1)
		if got := runPasses(t, g, ks) + 1; got != n-1 { // + the local first product
			t.Errorf("%s: relaxation from an end ran %d products, want all %d", name, got, n-1)
		}
		want := BellmanFordRef(g.WithUnitWeights(), 0)
		if !reflect.DeepEqual(apsp.Dist()[0], want) || !reflect.DeepEqual(ks.Dist()[0], want) {
			t.Errorf("%s: distances from vertex 0 differ from BellmanFordRef", name)
		}
	}

	g := graph.Clique(n)
	apsp, ks := NewAPSPKernel(), NewKSourceKernel([]core.NodeID{0, 5}, 1)
	if got := runPasses(t, g, apsp); got > 3 {
		t.Errorf("clique: apsp ran %d squarings, want at most 2 and the confirming one", got)
	}
	if got := runPasses(t, g, ks) + 1; got > 3 { // + the local first product
		t.Errorf("clique: relaxation ran %d products, want at most 2 and the confirming one", got)
	}
	for j, src := range []core.NodeID{0, 5} {
		want := BellmanFordRef(g.WithUnitWeights(), src)
		if !reflect.DeepEqual(apsp.Dist()[src], want) || !reflect.DeepEqual(ks.Dist()[j], want) {
			t.Errorf("clique: distances from vertex %d differ from BellmanFordRef", src)
		}
	}
}

// TestStateFromBeforeTheStopRuleRestores: the stop rule changed no
// snapshot field — `remaining` and the exponent merely became upper
// bounds — so version-2 state written by the fixed-count loops must
// still restore and finish with the same answer. The blobs under
// testdata were written by the commit before the rule, mid-run, on
// G(16, 0.4) with weights 1..4 and seed 42: apsp after its first
// squaring, approx-ksource (sources 0 and 8, ε = 0.25) after 2 of its 5
// hop products and again one product into its relaxation.
func TestStateFromBeforeTheStopRuleRestores(t *testing.T) {
	g := graph.RandomGNPWeighted(16, 0.4, 4, 42)
	approx := func() clique.Checkpointable {
		return NewApproxKSourceKernel([]core.NodeID{0, 8}, hopset.Params{Eps: 0.25})
	}
	for blob, tc := range map[string]struct {
		fresh    func() clique.Checkpointable
		leftOver int // passes the fixed-count run had left
	}{
		"apsp-after-1":           {func() clique.Checkpointable { return NewAPSPKernel() }, 3},
		"approx-ksource-after-2": {approx, 8},
		"approx-ksource-after-6": {approx, 4},
	} {
		state, err := os.ReadFile(filepath.Join("testdata", blob+".v2state"))
		if err != nil {
			t.Fatal(err)
		}
		k := tc.fresh()
		if err := k.RestoreState(bytes.NewReader(state)); err != nil {
			t.Fatalf("%s: RestoreState: %v", blob, err)
		}
		if passes := runPasses(t, g, k); passes < 1 || passes > tc.leftOver {
			t.Errorf("%s: restored run took %d passes, the fixed-count run had %d left", blob, passes, tc.leftOver)
		}
		ref := tc.fresh()
		runKernel(t, g, ref)
		if !reflect.DeepEqual(k.Result(), ref.Result()) {
			t.Errorf("%s: restored run's result differs from a fresh run's", blob)
		}
	}
}

// TestStateFromBeforeSemiNaiveSquaringRestores: version-3 state, written
// before the power cursor carried the last squaring's operand, must
// still restore: the next squaring then streams whole rows and the run
// ends with the same answer as a fresh one. The blobs under testdata
// were written by the commit before semi-naive squaring, on G(16, 0.4)
// with weights 1..4 and seed 42: apsp after its first squaring, and
// ksource (sources 0 and 8, h = 5) after its first squaring and again
// one product into its relaxation.
func TestStateFromBeforeSemiNaiveSquaringRestores(t *testing.T) {
	g := graph.RandomGNPWeighted(16, 0.4, 4, 42)
	ksource := func() clique.Checkpointable { return NewKSourceKernel([]core.NodeID{0, 8}, 5) }
	for blob, fresh := range map[string]func() clique.Checkpointable{
		"apsp-after-1":    func() clique.Checkpointable { return NewAPSPKernel() },
		"ksource-after-1": ksource,
		"ksource-after-4": ksource,
	} {
		state, err := os.ReadFile(filepath.Join("testdata", blob+".v3state"))
		if err != nil {
			t.Fatal(err)
		}
		k := fresh()
		if err := k.RestoreState(bytes.NewReader(state)); err != nil {
			t.Fatalf("%s: RestoreState: %v", blob, err)
		}
		runKernel(t, g, k)
		ref := fresh()
		runKernel(t, g, ref)
		if !reflect.DeepEqual(k.Result(), ref.Result()) {
			t.Errorf("%s: restored run's result differs from a fresh run's", blob)
		}
	}
}
