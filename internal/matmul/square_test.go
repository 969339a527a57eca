package matmul

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// sameBits reports whether two matrices are identical down to their
// storage: offsets, columns and values.
func sameBits(a, b *Matrix) bool {
	return a.N == b.N && a.Sr.Name == b.Sr.Name &&
		slices.Equal(a.Rows, b.Rows) && slices.Equal(a.Cols, b.Cols) && slices.Equal(a.Vals, b.Vals)
}

// squarePass is the semi-naive squaring X ⊗ X = X ⊕ X ⊗ Δ of an X =
// prev ⊗ prev, as Power builds it.
func squarePass(x, prev *Matrix) (*Pass, error) {
	return newPass(nil, dense(x), dense(prev), true, nil, &cubePlan{})
}

// TestSemiNaiveSquaringMatchesRef: over every semiring, on random
// reflexive X = P ⊗ P of several densities and hop horizons, the
// semi-naive squaring returns MulRef(X, X) bit for bit, and votes right
// on whether it changed X, at 1 and 2 workers with no link carrying
// more than one word a round.
func TestSemiNaiveSquaringMatchesRef(t *testing.T) {
	for _, sr := range core.AllSemirings() {
		for _, density := range []float64{0.05, 0.15} {
			for seed := int64(1); seed <= 2; seed++ {
				a, err := FromGraph(graph.RandomGNP(40, density, seed).WithUniformRandomWeights(2, 20), sr, true)
				if err != nil {
					t.Fatal(err)
				}
				prev := a
				for hops := 1; hops <= 4; hops *= 2 {
					x, err := MulRef(prev, prev)
					if err != nil {
						t.Fatal(err)
					}
					want, err := MulRef(x, x)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2} {
						name := fmt.Sprintf("%s/p%.2f/seed%d/P=A^%d/w%d", sr.Name, density, seed, hops, workers)
						p, err := squarePass(x, prev)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						runVotePass(t, p, workers)
						if got := p.Sparse(); !sameBits(got, want) {
							t.Fatalf("%s: semi-naive squaring differs from MulRef(X, X)", name)
						}
						if p.changed() != !sameBits(want, x) {
							t.Errorf("%s: changed() = %v", name, p.changed())
						}
					}
					prev = x
				}
			}
		}
	}
}

// TestSemiNaiveSquaringEdges: a single-node clique squares and powers
// without error, and a squaring whose Δ is empty — X = P — returns X,
// votes that nothing changed at no cost in vote words, and bills what
// the cube model predicts: X's segments out, the diagonal nodes'
// partial rows back.
func TestSemiNaiveSquaringEdges(t *testing.T) {
	sr := core.MinPlus()
	one := Identity(1, sr)
	p, err := squarePass(one, one)
	if err != nil {
		t.Fatal(err)
	}
	if st := runVotePass(t, p, 1); st.Rounds != 1 || st.TotalMsgs != 0 || !sameBits(p.Sparse(), one) {
		t.Errorf("n = 1: %d rounds, %d words, result %v", st.Rounds, st.TotalMsgs, p.Sparse())
	}
	pw := NewPower(one, 16)
	if _, err := runProduct(1, pw); err != nil || !sameBits(pw.Result().(*Matrix), one) {
		t.Errorf("n = 1 power: %v, result %v", err, pw.Result())
	}

	a, err := FromGraph(graph.RandomGNP(30, 0.1, 2).WithUniformRandomWeights(2, 9), sr, true)
	if err != nil {
		t.Fatal(err)
	}
	x := a
	for i := 0; i < 5; i++ {
		if x, err = MulRef(x, x); err != nil {
			t.Fatal(err)
		}
	}
	p, err = squarePass(x, x)
	if err != nil {
		t.Fatal(err)
	}
	st := runVotePass(t, p, 1)
	if want := predictCube(t, x, dense(x), true, false); st.Rounds != want.rounds || st.TotalMsgs != want.words {
		t.Errorf("empty Δ: %d rounds and %d words, model %d and %d", st.Rounds, st.TotalMsgs, want.rounds, want.words)
	}
	if !sameBits(p.Sparse(), x) || p.changed() {
		t.Errorf("empty Δ: the squaring of a fixpoint changed it (changed() = %v)", p.changed())
	}
}

// TestSemiNaiveSquaringDeltaShapes: two Δ shapes the random fixtures
// may miss, each run as a semi-naive squaring X ⊗ X over every semiring
// at link caps 1 and 4, and each required to match MulRef(X, X) bit for
// bit and to vote right on whether it changed X.
//
//   - value-only: on a weighted clique P's support is already full, so
//     X = P ⊗ P lowers (min,+) and raises (max,min) entries without
//     adding any; Δ holds values only (and is empty over booleans).
//   - empty-but-needed: an edge {0, 1} apart from a path. Rows 0 and 1
//     do not change in X, so Δ[0] is empty, yet node 1 still multiplies
//     by it while the path's rows grow.
func TestSemiNaiveSquaringDeltaShapes(t *testing.T) {
	apart, err := graph.LoadEdgeList(strings.NewReader("p 8\n0 1 5\n2 3 4\n3 4 7\n4 5 2\n5 6 3\n6 7 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.CSR
	}{
		{"value-only", graph.Clique(12).WithUniformRandomWeights(3, 40)},
		{"empty-but-needed", apart},
	} {
		for _, sr := range core.AllSemirings() {
			p, err := FromGraph(tc.g, sr, true)
			if err != nil {
				t.Fatal(err)
			}
			x, err := MulRef(p, p)
			if err != nil {
				t.Fatal(err)
			}
			// |Δ| and |Δ[0]|: the entries of X (of its row 0) that P does
			// not hold with the same value.
			dx, dp := dense(x), dense(p)
			delta, delta0 := 0, 0
			for i, v := range dx.Vals {
				if v != dp.Vals[i] {
					delta++
					if i < dx.K {
						delta0++
					}
				}
			}
			switch tc.name {
			case "value-only":
				grew := !slices.Equal(x.Rows, p.Rows) || !slices.Equal(x.Cols, p.Cols)
				if grew || (delta == 0) != (sr.Kind() == core.KindBoolOrAnd) {
					t.Fatalf("%s %s: support grew = %v, |Δ| = %d", tc.name, sr.Name, grew, delta)
				}
			case "empty-but-needed":
				if delta0 != 0 || x.At(1, 0) == sr.Zero || delta == 0 {
					t.Fatalf("%s %s: |Δ[0]| = %d, X[1][0] = %d, |Δ| = %d", tc.name, sr.Name, delta0, x.At(1, 0), delta)
				}
			}
			want, err := MulRef(x, x)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%s", tc.name, sr.Name)
			sq, err := squarePass(x, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runVotePass(t, sq, 1)
			if got := sq.Sparse(); !sameBits(got, want) {
				t.Fatalf("%s: semi-naive squaring differs from MulRef(X, X)", name)
			}
			if sq.changed() != !sameBits(want, x) {
				t.Errorf("%s: changed() = %v", name, sq.changed())
			}
		}
	}
}

// TestCubeProductMatchesRef: the cube pass of a semi-naive squaring
// returns X ⊗ X bit for bit, over every semiring, on sizes that cover
// q = 1, n = q³, n just past q³ and ragged last blocks (up to n = 131,
// q = 5), for four shapes of Δ:
//
//   - empty: X is its own closure and P = X, the fixpoint a squaring
//     loop ends on;
//   - all of X: P is all Zero, so every entry of X is in Δ;
//   - diagonal blocks: P has edges only inside the blocks B_i, so X = P ⊗ P
//     and Δ lie in the diagonal blocks, where the diagonal cube nodes
//     use X in Δ's place;
//   - one pair: X is its own closure and P lacks one pair {0, j} of it,
//     j as far from 0 as the closure reaches, so Δ is that pair alone:
//     the shape of a squaring that confirms a fixpoint, whose few Δ
//     entries meet dense columns of X.
//
// Each runs twice: as a chain's first cube squaring, which ships X
// whole, and as a later one, whose cube nodes hold P's blocks and take
// Δ for their X-updates. Its vote must agree with the host's
// slices.Equal of the product and X, and its rounds and words with
// predictCube. The semirings are (min,+), booleans, (max,min) and a
// generic one, which runs every loop through Add and Mul. Every run
// passes the a ≤ b audit (cubeAudit), with no link carrying more than
// one word a round.
func TestCubeProductMatchesRef(t *testing.T) {
	for _, sr := range append(core.AllSemirings(), generic(core.MinPlus())) {
		for _, n := range []int{1, 2, 7, 8, 9, 27, 28, 63, 64, 65, 131} {
			a, err := FromGraph(graph.RandomGNP(n, 0.1, int64(n)).WithUniformRandomWeights(2, 20), sr, true)
			if err != nil {
				t.Fatal(err)
			}
			// blockLocal is a's edges inside the blocks B_i alone.
			cb := &cubePlan{n: n, q: cubeRoot(n)}
			bld := newBuilder(n, sr)
			for v := 0; v < n; v++ {
				row := slices.Clone(dense(a).Row(core.NodeID(v)))
				for j := range row {
					if cb.block(j) != cb.block(v) {
						row[j] = sr.Zero
					}
				}
				bld.appendRow(row)
			}
			blockLocal := bld.m
			closure := a
			for {
				next, err := MulRef(closure, closure)
				if err != nil {
					t.Fatal(err)
				}
				if sameBits(next, closure) {
					break
				}
				closure = next
			}
			square := func(m *Matrix) *Matrix {
				x, err := MulRef(m, m)
				if err != nil {
					t.Fatal(err)
				}
				return x
			}
			onePair := dense(closure)
			for j := n - 1; j > 0; j-- {
				if onePair.At(0, j) != sr.Zero {
					onePair.Vals[j], onePair.Vals[j*n] = sr.Zero, sr.Zero
					break
				}
			}
			for _, tc := range []struct {
				name string
				x    *Matrix
				prev *Dense
			}{
				{"empty", closure, dense(closure)},
				{"all", square(a), NewDense(n, n, sr)},
				{"diagonal-blocks", square(blockLocal), dense(blockLocal)},
				{"one-pair", closure, onePair},
			} {
				want := square(tc.x)
				for _, held := range []bool{false, true} {
					name := fmt.Sprintf("%s %v/n%d/%s/held=%v", sr.Name, sr.Kind(), n, tc.name, held)
					p, err := newPass(nil, dense(tc.x), tc.prev, true, nil, &cubePlan{held: held})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					st := runAudited(t, p)
					if got := p.Sparse(); !sameBits(got, want) {
						t.Fatalf("%s: the cube pass differs from MulRef(X, X)", name)
					}
					if same := slices.Equal(p.Dense().Vals, dense(tc.x).Vals); p.changed() == same {
						t.Errorf("%s: changed() = %v, but the product equals X: %v", name, p.changed(), same)
					}
					if model := predictCube(t, tc.x, tc.prev, true, held); st.Rounds != model.rounds || st.TotalMsgs != model.words {
						t.Errorf("%s: %d rounds and %d words, model %d and %d", name, st.Rounds, st.TotalMsgs, model.rounds, model.words)
					}
				}
			}
		}
	}
}

// TestCubeFallsBackToRowPull: a (min,+) squaring whose largest value
// doubled saturates has no wire format for its partial rows, so it
// runs row-pull instead — and still returns X ⊗ X.
func TestCubeFallsBackToRowPull(t *testing.T) {
	sr := core.MinPlus()
	huge := core.InfWeight/2 + 1
	bld := newBuilder(2, sr)
	bld.appendRow([]int64{sr.One, huge})
	bld.appendRow([]int64{huge, sr.One})
	x := bld.m
	p, err := newPass(nil, dense(x), dense(x), false, nil, &cubePlan{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Nodes()[0].(*mulNode); !ok {
		t.Fatalf("node 0 runs %T, want the row-pull *mulNode", p.Nodes()[0])
	}
	runVotePass(t, p, 1)
	want, err := MulRef(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(p.Sparse(), want) {
		t.Error("the row-pull fallback differs from MulRef(X, X)")
	}
}
