package matmul

import (
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// bruteMul is an At-based O(n^3) oracle for the semiring product.
func bruteMul(a, b *Matrix) [][]int64 {
	sr := a.Sr
	out := make([][]int64, a.N)
	for i := 0; i < a.N; i++ {
		out[i] = make([]int64, a.N)
		for j := 0; j < a.N; j++ {
			acc := sr.Zero
			for k := 0; k < a.N; k++ {
				acc = sr.Add(acc, sr.Mul(a.At(core.NodeID(i), core.NodeID(k)), b.At(core.NodeID(k), core.NodeID(j))))
			}
			out[i][j] = acc
		}
	}
	return out
}

func matrixEqualsDenseOracle(t *testing.T, c *Matrix, want [][]int64) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatalf("result invalid: %v", err)
	}
	for i := 0; i < c.N; i++ {
		for j := 0; j < c.N; j++ {
			if got := c.At(core.NodeID(i), core.NodeID(j)); got != want[i][j] {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}

func testGraphs(t *testing.T) []*graph.CSR {
	t.Helper()
	gs := []*graph.CSR{
		graph.Path(6).WithUniformRandomWeights(1, 9),
		graph.Grid(3, 4).WithUniformRandomWeights(2, 5),
		graph.Clique(5).WithUniformRandomWeights(3, 7),
		graph.RandomGNP(17, 0.3, 42).WithUniformRandomWeights(4, 16),
		graph.RandomGNP(9, 0.05, 7).WithUniformRandomWeights(5, 3), // likely disconnected
	}
	for _, g := range gs {
		if err := g.Validate(); err != nil {
			t.Fatalf("generator produced invalid graph: %v", err)
		}
	}
	return gs
}

func TestMulRefAgainstBruteForce(t *testing.T) {
	for _, sr := range []core.Semiring{core.MinPlus(), core.BoolOrAnd()} {
		for gi, g := range testGraphs(t) {
			gg := g
			if sr.Name == "booland" {
				gg = &graph.CSR{N: g.N, Offsets: g.Offsets, Targets: g.Targets} // drop weights
			}
			a, err := FromGraph(gg, sr, true)
			if err != nil {
				t.Fatalf("FromGraph(%s, g%d): %v", sr.Name, gi, err)
			}
			c, err := MulRef(a, a)
			if err != nil {
				t.Fatalf("MulRef(%s, g%d): %v", sr.Name, gi, err)
			}
			matrixEqualsDenseOracle(t, c, bruteMul(a, a))
		}
	}
}

func TestIdentityIsNeutral(t *testing.T) {
	sr := core.MinPlus()
	g := graph.RandomGNP(12, 0.4, 9).WithUniformRandomWeights(6, 10)
	a, err := FromGraph(g, sr, false)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	id := Identity(a.N, sr)
	left, err := MulRef(id, a)
	if err != nil {
		t.Fatalf("MulRef(I, A): %v", err)
	}
	right, err := MulRef(a, id)
	if err != nil {
		t.Fatalf("MulRef(A, I): %v", err)
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			want := a.At(core.NodeID(i), core.NodeID(j))
			if got := left.At(core.NodeID(i), core.NodeID(j)); got != want {
				t.Fatalf("(I*A)[%d][%d] = %d, want %d", i, j, got, want)
			}
			if got := right.At(core.NodeID(i), core.NodeID(j)); got != want {
				t.Fatalf("(A*I)[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestFromGraphReflexiveDiagonal(t *testing.T) {
	sr := core.MinPlus()
	g := graph.RandomGNP(10, 0.3, 11).WithUniformRandomWeights(7, 4)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	for v := 0; v < a.N; v++ {
		if got := a.At(core.NodeID(v), core.NodeID(v)); got != sr.One {
			t.Fatalf("diag[%d] = %d, want One=%d", v, got, sr.One)
		}
		cols, ws := g.Row(core.NodeID(v))
		for i, u := range cols {
			if got := a.At(core.NodeID(v), u); got != ws[i] {
				t.Fatalf("A[%d][%d] = %d, want weight %d", v, u, got, ws[i])
			}
		}
	}
	if a.NNZ() != g.NumArcs()+g.N {
		t.Fatalf("NNZ = %d, want arcs+diag = %d", a.NNZ(), g.NumArcs()+g.N)
	}
}

// TestFromGraphBooleanIgnoresWeights: over BoolOrAnd an edge is "true"
// regardless of any weights, so reachability products stay correct on
// weighted graphs (raw weights would poison bitwise and/or).
func TestFromGraphBooleanIgnoresWeights(t *testing.T) {
	sr := core.BoolOrAnd()
	g := graph.Path(3).WithUniformRandomWeights(1, 10) // weights 1..10, some even
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	for _, v := range a.Vals {
		if v != 1 {
			t.Fatalf("boolean adjacency stored value %d, want 1", v)
		}
	}
	c, err := MulRef(a, a)
	if err != nil {
		t.Fatalf("MulRef: %v", err)
	}
	if got := c.At(0, 2); got != 1 {
		t.Fatalf("2-hop reachability 0->2 = %d, want 1", got)
	}
}

// TestFromGraphUnweightedMinPlusCountsHops: unweighted edges cost 1
// over (min,+), not One=0, so powers yield hop counts.
func TestFromGraphUnweightedMinPlusCountsHops(t *testing.T) {
	sr := core.MinPlus()
	a, err := FromGraph(graph.Path(4), sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	c, err := MulRef(a, a)
	if err != nil {
		t.Fatalf("MulRef: %v", err)
	}
	if got := c.At(0, 2); got != 2 {
		t.Fatalf("2-hop distance 0->2 = %d, want 2", got)
	}
	if got := c.At(0, 1); got != 1 {
		t.Fatalf("distance 0->1 = %d, want 1", got)
	}
}

// TestFromGraphFoldsSelfLoops: a hand-built CSR carrying a self-loop
// must not produce a duplicate diagonal column in the reflexive matrix;
// the loop folds into the diagonal via sr.Add.
func TestFromGraphFoldsSelfLoops(t *testing.T) {
	g := &graph.CSR{
		N:       2,
		Offsets: []int32{0, 2, 3},
		Targets: []core.NodeID{0, 1, 0},
		Weights: []int64{5, 2, 2},
	}
	a, err := FromGraph(g, core.MinPlus(), true)
	if err != nil {
		t.Fatalf("FromGraph on self-loop CSR: %v", err)
	}
	if got := a.At(0, 0); got != 0 { // min(One=0, loop weight 5)
		t.Fatalf("diag[0] = %d, want 0", got)
	}
	cols, _ := a.Row(0)
	if len(cols) != 2 {
		t.Fatalf("row 0 has %d entries, want 2 (no duplicate diagonal)", len(cols))
	}
}

func TestDimensionAndSemiringMismatch(t *testing.T) {
	a := Identity(4, core.MinPlus())
	b := Identity(5, core.MinPlus())
	if _, err := MulRef(a, b); err == nil {
		t.Fatal("MulRef accepted mismatched dimensions")
	}
	c := Identity(4, core.BoolOrAnd())
	if _, err := MulRef(a, c); err == nil {
		t.Fatal("MulRef accepted mismatched semirings")
	}
}

// decodeRow replays packed words through the production decoder
// (mulNode.accumulate) onto a Zero row with A[v][k] = One, which by the
// semiring identities Mul(One, x) = x and Add(Zero, x) = x reproduces
// the packed B-row exactly. It replays them through the generic loop as
// well and fails the test if the pass's chosen loop disagrees.
func decodeRow(t testing.TB, wf *wireFormat, sr core.Semiring, cols int, words []uint64) []int64 {
	t.Helper()
	nd := &mulNode{sr: sr, wf: wf, acc: NewDense(1, cols, sr).Vals}
	ref := &mulNode{sr: sr, wf: wf, acc: NewDense(1, cols, sr).Vals}
	for _, w := range words {
		nd.accumulate(sr.One, w)
		ref.accumulateGeneric(sr.One, w)
	}
	for j := range ref.acc {
		if nd.acc[j] != ref.acc[j] {
			t.Fatalf("%s loop %d decodes column %d to %d, the generic loop to %d", sr.Name, wf.loop, j, nd.acc[j], ref.acc[j])
		}
	}
	return nd.acc
}

func TestWireFormatRoundTrip(t *testing.T) {
	sr := core.MinPlus()
	const lo, hi = 3, 1<<40 + 3
	for _, cols := range []int{1, 2, 7, 64, 1000} {
		wf, err := newWireFormat(cols, []int64{lo, hi}, sr)
		if err != nil {
			t.Fatalf("cols=%d: %v", cols, err)
		}
		for _, j := range []int{0, 1, cols - 1} {
			if j >= cols {
				continue
			}
			for _, val := range []int64{sr.One, lo, hi} {
				words := wf.packRow(nil, []core.NodeID{core.NodeID(j)}, []int64{val})
				if len(words) != 1 {
					t.Fatalf("cols=%d: one entry packed into %d words", cols, len(words))
				}
				for gj, gv := range decodeRow(t, wf, sr, cols, words) {
					want := sr.Zero
					if gj == j {
						want = val
					}
					if gv != want {
						t.Fatalf("cols=%d: pack/decode(%d,%d): column %d = %d, want %d", cols, j, val, gj, gv, want)
					}
				}
			}
		}
	}
}

func TestCheckPackableRejectsOversized(t *testing.T) {
	sr := core.MinPlus()
	const widest = int64(1)<<55 - 3 // 256 columns: 8 index bits leave a 55-bit field
	// The field is offset-coded, so what must fit is the range, not the
	// magnitude: One (0) has its own code and sits outside the range.
	wf, err := newWireFormat(256, []int64{0, 5, 5 + widest}, sr)
	if err != nil {
		t.Fatalf("in-range values rejected: %v", err)
	}
	if wf.idxBits+wf.width != 63 {
		t.Fatalf("widest legal range uses %d+%d bits, want all 63", wf.idxBits, wf.width)
	}
	if _, err := newWireFormat(256, []int64{1 << 60}, sr); err != nil {
		t.Fatalf("lone large value rejected: %v", err)
	}
	if _, err := newWireFormat(256, []int64{5, 5 + widest + 1}, sr); err == nil {
		t.Fatal("oversized value range accepted")
	}
	if _, err := newWireFormat(256, []int64{-3}, sr); err == nil {
		t.Fatal("negative value accepted")
	}
	// Semiring Zero is exempt: it is never transmitted.
	if _, err := newWireFormat(256, []int64{1, core.InfWeight}, sr); err != nil {
		t.Fatalf("Zero sentinel rejected: %v", err)
	}
}
