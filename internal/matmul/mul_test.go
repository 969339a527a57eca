package matmul

import (
	"context"
	"errors"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// runProduct runs one product kernel on a graph-free session of n nodes
// and returns the session's engine stats.
func runProduct(n int, k clique.Kernel, opts ...clique.Option) (engine.Stats, error) {
	s, err := clique.NewSize(n, opts...)
	if err != nil {
		return engine.Stats{}, err
	}
	defer s.Close()
	err = s.Run(context.Background(), k)
	return s.Stats().Engine, err
}

// runPass runs one bare pass on a fresh engine of its size, bounded by
// the pass's own MaxRoundsHint, and returns the engine's stats.
func runPass(p *Pass) (*engine.Stats, error) {
	e, err := engine.New(p.n, engine.Options{})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.RunBounded(context.Background(), p.Nodes(), p.MaxRoundsHint())
}

func matricesEqual(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: result invalid: %v", label, err)
	}
	for i := 0; i < want.N; i++ {
		for j := 0; j < want.N; j++ {
			g := got.At(core.NodeID(i), core.NodeID(j))
			w := want.At(core.NodeID(i), core.NodeID(j))
			if g != w {
				t.Fatalf("%s: C[%d][%d] = %d, want %d", label, i, j, g, w)
			}
		}
	}
}

// TestMulMatchesRef runs the distributed product against the sequential
// reference across generator families, semirings, and worker counts.
func TestMulMatchesRef(t *testing.T) {
	for _, sr := range core.AllSemirings() {
		for gi, g := range testGraphs(t) {
			gg := g
			if sr.Name == "booland" {
				gg = &graph.CSR{N: g.N, Offsets: g.Offsets, Targets: g.Targets}
			}
			a, err := FromGraph(gg, sr, true)
			if err != nil {
				t.Fatalf("FromGraph: %v", err)
			}
			want, err := MulRef(a, a)
			if err != nil {
				t.Fatalf("MulRef: %v", err)
			}
			for _, workers := range []int{1, 3, 8} {
				k := NewPower(a, 2)
				stats, err := runProduct(a.N, k, clique.WithWorkers(workers))
				if err != nil {
					t.Fatalf("A*A (%s, g%d, w=%d): %v", sr.Name, gi, workers, err)
				}
				if stats.TotalMsgs == 0 && g.NumEdges() > 0 {
					t.Fatalf("A*A (%s, g%d, w=%d): no messages routed for a non-empty graph", sr.Name, gi, workers)
				}
				matricesEqual(t, k.Result().(*Matrix), want, sr.Name)
			}
		}
	}
}

// TestMulSquaredMatchesRef verifies a second-level product (the result
// of a product fed back in), which exercises denser operands.
func TestMulSquaredMatchesRef(t *testing.T) {
	sr := core.MinPlus()
	g := graph.RandomGNP(20, 0.25, 13).WithUniformRandomWeights(8, 8)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	k2 := NewPower(a, 2)
	if _, err := runProduct(a.N, k2); err != nil {
		t.Fatalf("A*A: %v", err)
	}
	k4 := NewPower(k2.Result().(*Matrix), 2)
	if _, err := runProduct(a.N, k4); err != nil {
		t.Fatalf("A2*A2: %v", err)
	}
	ref2, err := MulRef(a, a)
	if err != nil {
		t.Fatalf("MulRef: %v", err)
	}
	ref4, err := MulRef(ref2, ref2)
	if err != nil {
		t.Fatalf("MulRef: %v", err)
	}
	matricesEqual(t, k4.Result().(*Matrix), ref4, "A^4")
}

// TestMulN256RoutesMessages is the acceptance check that a product at
// n=256 really flows through the router: the engine must report a
// substantial number of routed words and more than the two protocol
// framing rounds.
func TestMulN256RoutesMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("n=256 product in -short mode")
	}
	sr := core.MinPlus()
	g := graph.RandomGNP(256, 0.05, 99).WithUniformRandomWeights(9, 30)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	k := NewPower(a, 2)
	stats, err := runProduct(a.N, k)
	if err != nil {
		t.Fatalf("A*A: %v", err)
	}
	if stats.TotalMsgs == 0 {
		t.Fatal("engine stats report zero routed messages for an n=256 product")
	}
	// Every off-diagonal A-entry (v, k) has node k stream its non-empty
	// row of B to v, at least one word.
	minMsgs := uint64(a.NNZ() - a.N)
	if stats.TotalMsgs < minMsgs {
		t.Fatalf("TotalMsgs = %d, want >= %d (a word per off-diagonal entry)", stats.TotalMsgs, minMsgs)
	}
	if stats.Rounds <= 2 {
		t.Fatalf("Rounds = %d, want > 2 (budget-paced streaming)", stats.Rounds)
	}
	want, err := MulRef(a, a)
	if err != nil {
		t.Fatalf("MulRef: %v", err)
	}
	matricesEqual(t, k.Result().(*Matrix), want, "n=256")
}

// TestUnpacedProductReturnsBandwidthError is the regression test that a
// product violating the per-link budget surfaces *engine.BandwidthError
// through the error chain instead of panicking or silently dropping.
func TestUnpacedProductReturnsBandwidthError(t *testing.T) {
	sr := core.MinPlus()
	// K_64 rows have 64 entries of 6 index + 5 value bits: six words
	// even in the positional encoding. The default budget is one word
	// per link per round, so an unpaced stream must overflow.
	g := graph.Clique(64).WithUniformRandomWeights(10, 30)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	unpaced, err := NewPass(a, a, true)
	if err != nil {
		t.Fatal(err)
	}
	var bwe *engine.BandwidthError
	if _, err := runPass(unpaced); !errors.As(err, &bwe) {
		t.Fatalf("unpaced product error = %v, want *engine.BandwidthError", err)
	}
	// The paced path on the identical input must succeed.
	if _, err := runProduct(a.N, NewPower(a, 2)); err != nil {
		t.Fatalf("paced product on same input: %v", err)
	}
}

// TestMulRejectsUnpackableValues checks the pre-flight value screen:
// what must fit beside the column index is the operand's value range.
func TestMulRejectsUnpackableValues(t *testing.T) {
	sr := core.MinPlus()
	a := Identity(300, sr) // 9 index bits -> 54 field bits
	single := func(cols []core.NodeID, vals []int64) *Matrix {
		m := &Matrix{N: 300, Sr: sr, Rows: make([]int32, 301), Cols: cols, Vals: vals}
		for v := 1; v <= 300; v++ {
			m.Rows[v] = int32(len(cols))
		}
		return m
	}
	wide := single([]core.NodeID{1, 2}, []int64{1, 1 << 60})
	if _, err := NewPass(a, wide, false); err == nil {
		t.Fatal("product accepted a value range wider than the wire format")
	}
	// A lone large value has range zero and packs into a 2-bit field.
	big := single([]core.NodeID{1}, []int64{1 << 60})
	p, err := NewPass(a, big, false)
	if err == nil {
		_, err = runPass(p)
	}
	if err != nil {
		t.Fatalf("product rejected a lone large value: %v", err)
	}
	want, err := MulRef(a, big)
	if err != nil {
		t.Fatalf("MulRef: %v", err)
	}
	matricesEqual(t, p.Sparse(), want, "lone 1<<60")
}

func TestMulDenseMatchesRef(t *testing.T) {
	for _, sr := range core.AllSemirings() {
		g := graph.RandomGNP(24, 0.3, 21).WithUniformRandomWeights(11, 6)
		a, err := FromGraph(g, sr, true)
		if err != nil {
			t.Fatalf("FromGraph(%s): %v", sr.Name, err)
		}
		// B's columns are the vectors of k sources: column j starts as
		// the indicator of source j (One at the source, Zero elsewhere)
		// and is relaxed twice so the second product ships real values.
		const k = 3
		b := NewDense(a.N, k, sr)
		for j := 0; j < k; j++ {
			b.Row(core.NodeID(j * 7))[j] = sr.One
		}
		for step := 0; step < 2; step++ {
			want, err := MulDenseRef(a, b)
			if err != nil {
				t.Fatalf("MulDenseRef(%s): %v", sr.Name, err)
			}
			p, err := NewDensePass(a, b, false)
			if err != nil {
				t.Fatalf("A*B (%s): %v", sr.Name, err)
			}
			stats, err := runPass(p)
			if err != nil {
				t.Fatalf("A*B (%s): %v", sr.Name, err)
			}
			if stats.TotalMsgs == 0 {
				t.Fatalf("A*B (%s) routed no messages", sr.Name)
			}
			got := p.Dense()
			for v := 0; v < a.N; v++ {
				for j := 0; j < k; j++ {
					if got.At(core.NodeID(v), j) != want.At(core.NodeID(v), j) {
						t.Fatalf("%s step %d: C[%d][%d] = %d, want %d", sr.Name, step, v, j, got.At(core.NodeID(v), j), want.At(core.NodeID(v), j))
					}
				}
			}
			b = got
		}
	}
}

// TestMulDenseWideOperand: draining a dense K-wide row takes ~K rounds
// at one word per link, so K larger than the engine's n-scaled default
// round bound must still succeed (the product sizes MaxRounds from the
// widest packed row).
func TestMulDenseWideOperand(t *testing.T) {
	sr := core.MinPlus()
	g := graph.Clique(16).WithUniformRandomWeights(3, 4)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	const k = 200 // > 4n+64 = 128
	b := NewDense(a.N, k, sr)
	// All k entries on one row, so draining that row's stream takes
	// ~k rounds — past the engine's n-scaled default bound; the
	// product must size MaxRounds from the widest packed row.
	for j := 0; j < k; j++ {
		b.Row(0)[j] = int64(1 + j%5)
	}
	p, err := NewDensePass(a, b, false)
	if err != nil {
		t.Fatalf("NewDensePass: %v", err)
	}
	if _, err := runPass(p); err != nil {
		t.Fatalf("A*B with wide dense operand: %v", err)
	}
	got := p.Dense()
	want, err := MulDenseRef(a, b)
	if err != nil {
		t.Fatalf("MulDenseRef: %v", err)
	}
	for v := 0; v < a.N; v++ {
		for j := 0; j < k; j++ {
			if got.At(core.NodeID(v), j) != want.At(core.NodeID(v), j) {
				t.Fatalf("C[%d][%d] = %d, want %d", v, j, got.At(core.NodeID(v), j), want.At(core.NodeID(v), j))
			}
		}
	}
}

// TestMulDeterministic re-runs the same product with different worker
// counts and demands bit-identical results.
func TestMulDeterministic(t *testing.T) {
	sr := core.MinPlus()
	g := graph.RandomGNP(32, 0.2, 5).WithUniformRandomWeights(12, 12)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	var first *Matrix
	for _, workers := range []int{1, 2, 5, 16} {
		k := NewPower(a, 2)
		if _, err := runProduct(a.N, k, clique.WithWorkers(workers)); err != nil {
			t.Fatalf("A*A (w=%d): %v", workers, err)
		}
		c := k.Result().(*Matrix)
		if first == nil {
			first = c
			continue
		}
		if len(c.Cols) != len(first.Cols) {
			t.Fatalf("w=%d: NNZ %d differs from %d", workers, len(c.Cols), len(first.Cols))
		}
		for i := range c.Cols {
			if c.Cols[i] != first.Cols[i] || c.Vals[i] != first.Vals[i] {
				t.Fatalf("w=%d: entry %d differs", workers, i)
			}
		}
	}
}

// TestMulZeroDim is the regression test for the kernel completion
// protocol on zero-node sessions: a 0 x 0 product must complete with a
// non-nil empty product, not a nil one.
func TestMulZeroDim(t *testing.T) {
	sr := core.MinPlus()
	a := Identity(0, sr)
	k := NewPower(a, 2)
	if _, err := runProduct(0, k); err != nil {
		t.Fatalf("0x0 A*A: %v", err)
	}
	if c, _ := k.Result().(*Matrix); c == nil || c.N != 0 {
		t.Fatalf("0x0 A*A product = %v, want empty non-nil matrix", c)
	}
	dk := NewRelaxation(a, nil, 2)
	_, err := runProduct(0, dk)
	if d, _ := dk.Result().(*Dense); err != nil || d == nil {
		t.Fatalf("0x0 A*B = (%v, %v), want a non-nil product", d, err)
	}
}
