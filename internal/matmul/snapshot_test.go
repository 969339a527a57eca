package matmul

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

func testMatrix(t *testing.T) *Matrix {
	t.Helper()
	g := graph.Path(4).WithUniformRandomWeights(7, 50)
	m, err := FromGraph(g, core.MinPlus(), true)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMatrixRoundTrip: sparse matrices (including nil and 0-dimension)
// survive serialization exactly, semiring identity included.
func TestMatrixRoundTrip(t *testing.T) {
	for _, m := range []*Matrix{nil, testMatrix(t), Identity(1, core.BoolOrAnd()), {N: 0, Sr: core.MinPlus(), Rows: []int32{0}}} {
		var buf bytes.Buffer
		w := ckptio.NewWriter(&buf)
		WriteMatrix(w, m)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMatrix(ckptio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		if (m == nil) != (got == nil) {
			t.Fatalf("presence did not round-trip: in=%v out=%v", m, got)
		}
		if m == nil {
			continue
		}
		if got.N != m.N || got.Sr.Name != m.Sr.Name {
			t.Fatalf("shape/semiring: got %d/%s want %d/%s", got.N, got.Sr.Name, m.N, m.Sr.Name)
		}
		for i := core.NodeID(0); int(i) < m.N; i++ {
			for j := core.NodeID(0); int(j) < m.N; j++ {
				if got.At(i, j) != m.At(i, j) {
					t.Fatalf("entry (%d,%d): got %d want %d", i, j, got.At(i, j), m.At(i, j))
				}
			}
		}
	}
}

// TestDenseRoundTrip: dense matrices round-trip, including the nil and
// 0 x k cases.
func TestDenseRoundTrip(t *testing.T) {
	d := NewDense(3, 2, core.MinPlus())
	d.Row(1)[0] = 42
	d.Row(2)[1] = 0
	for _, in := range []*Dense{nil, d, NewDense(0, 5, core.BoolOrAnd())} {
		var buf bytes.Buffer
		w := ckptio.NewWriter(&buf)
		WriteDense(w, in)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDense(ckptio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		if (in == nil) != (got == nil) {
			t.Fatalf("presence did not round-trip")
		}
		if in == nil {
			continue
		}
		if got.N != in.N || got.K != in.K || got.Sr.Name != in.Sr.Name || !reflect.DeepEqual(got.Vals, in.Vals) {
			t.Fatalf("dense did not round-trip: got %+v want %+v", got, in)
		}
	}
}

// TestCorruptMatrixRejected: structurally invalid CSR blobs (offsets
// out of order, columns out of range) fail Validate on read rather
// than producing a plausible matrix.
func TestCorruptMatrixRejected(t *testing.T) {
	encode := func(rows []int32, cols []core.NodeID, vals []int64) []byte {
		var buf bytes.Buffer
		w := ckptio.NewWriter(&buf)
		w.Bool(true)
		w.I64(2)
		w.String("minplus")
		w.I32s(rows)
		w.NodeIDs(cols)
		w.I64s(vals)
		return buf.Bytes()
	}
	for name, data := range map[string][]byte{
		"non-monotone offsets": encode([]int32{0, 2, 1}, []core.NodeID{0, 1}, []int64{1, 2}),
		"column out of range":  encode([]int32{0, 1, 2}, []core.NodeID{0, 9}, []int64{1, 2}),
		"offset span mismatch": encode([]int32{0, 1, 5}, []core.NodeID{0, 1}, []int64{1, 2}),
	} {
		if _, err := ReadMatrix(ckptio.NewReader(bytes.NewReader(data))); err == nil {
			t.Errorf("%s decoded without error", name)
		}
	}
}

// TestCorruptDenseRejected: a dense blob whose declared N x K shape
// overflows int — so the product wraps to the length of its value slab
// — fails on read rather than producing a matrix whose next product
// cannot allocate.
func TestCorruptDenseRejected(t *testing.T) {
	encode := func(n, k int64) []byte {
		var buf bytes.Buffer
		w := ckptio.NewWriter(&buf)
		w.Bool(true)
		w.I64(n)
		w.I64(k)
		w.String("minplus")
		w.I64s(nil)
		return buf.Bytes()
	}
	for name, data := range map[string][]byte{
		"4 x 2^62":    encode(4, 1<<62),
		"2^62 x 4":    encode(1<<62, 4),
		"2^32 x 2^32": encode(1<<32, 1<<32),
		"negative K":  encode(2, -1),
	} {
		if _, err := ReadDense(ckptio.NewReader(bytes.NewReader(data))); err == nil {
			t.Errorf("%s decoded without error", name)
		}
	}
}

// TestUnknownSemiringRejected: a checkpoint naming a semiring this
// build does not know fails with a descriptive error.
func TestUnknownSemiringRejected(t *testing.T) {
	m := testMatrix(t)
	m.Sr.Name = "maxtimes"
	var buf bytes.Buffer
	w := ckptio.NewWriter(&buf)
	WriteMatrix(w, m)
	if _, err := ReadMatrix(ckptio.NewReader(bytes.NewReader(buf.Bytes()))); err == nil {
		t.Fatal("unknown semiring accepted")
	}
}

// powerCursor encodes a Power cursor field by field, as WritePower lays
// it out.
func powerCursor(e, phase int64, base, result, prev *Matrix) []byte {
	var buf bytes.Buffer
	w := ckptio.NewWriter(&buf)
	w.I64(e)
	w.I64(phase)
	WriteMatrix(w, base)
	WriteMatrix(w, result)
	WriteMatrix(w, prev)
	return buf.Bytes()
}

// TestPowerCursorRoundTrip: a cursor with a previous operand restores
// it.
func TestPowerCursorRoundTrip(t *testing.T) {
	base := testMatrix(t)
	x, err := MulRef(base, base)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := ckptio.NewWriter(&buf)
	WritePower(w, &Power{e: 4, phase: 1, base: dense(x), result: dense(base), prev: dense(base)})
	p, err := ReadPower(ckptio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if p.e != 4 || p.phase != 1 || !sameBits(p.baseRows(), x) || !sameBits(sparse(p.result), base) || p.prev == nil || !sameBits(sparse(p.prev), base) {
		t.Fatalf("cursor did not round-trip: %+v", p)
	}
}

// TestReadPowerRejectsImpossibleCursors: a Power cursor that no run can
// have written is refused instead of running on.
func TestReadPowerRejectsImpossibleCursors(t *testing.T) {
	base := testMatrix(t)
	bigger := Identity(base.N+1, core.MinPlus())
	boolean := Identity(base.N, core.BoolOrAnd())
	noDiag, err := FromGraph(graph.Path(base.N).WithUniformRandomWeights(7, 50), core.MinPlus(), false)
	if err != nil {
		t.Fatal(err)
	}
	skew := dense(base)
	skew.Row(1)[0]++ // the edge (1, 0) no longer weighs what (0, 1) does
	for name, blob := range map[string][]byte{
		"negative exponent":                    powerCursor(-1, 0, base, nil, nil),
		"phase 2":                              powerCursor(4, 2, base, nil, nil),
		"phase -1":                             powerCursor(4, -1, base, nil, nil),
		"phase word 4":                         powerCursor(4, 4, base, nil, base),
		"result of another dimension":          powerCursor(4, 0, base, bigger, nil),
		"result over another semiring":         powerCursor(4, 0, base, boolean, nil),
		"previous of another dimension":        powerCursor(4, 0, base, nil, bigger),
		"previous over another semiring":       powerCursor(4, 0, base, nil, boolean),
		"previous without One on its diagonal": powerCursor(4, 0, base, nil, noDiag),
		"previous unequal to its transpose":    powerCursor(4, 0, base, nil, sparse(skew)),
		"held blocks without a previous":       powerCursor(4, 3, base, nil, nil),
		"no base":                              powerCursor(4, 0, nil, nil, nil),
	} {
		if _, err := ReadPower(ckptio.NewReader(bytes.NewReader(blob))); err == nil || !strings.Contains(err.Error(), "power state") {
			t.Errorf("%s: err = %v, want the power state error", name, err)
		}
	}
}

// stopAfter runs its kernel's first passes passes and then reports
// completion, leaving the last of them unharvested, as a stop at a pass
// boundary does.
type stopAfter struct {
	clique.Kernel
	passes int
}

func (k *stopAfter) Next(g *graph.CSR) (clique.Pass, error) {
	if k.passes == 0 {
		return clique.Pass{}, nil
	}
	k.passes--
	return k.Kernel.Next(g)
}

// TestPowerCursorFromPassSlabs: a Power cursor written after three
// squarings, while base and prev exist only as the slabs the last two
// left behind, resumes to the uninterrupted result and digest chain,
// billing the same passes, rounds and words, over every semiring.
func TestPowerCursorFromPassSlabs(t *testing.T) {
	ctx := context.Background()
	for _, sr := range core.AllSemirings() {
		a, err := FromGraph(graph.Path(40).WithUniformRandomWeights(2, 9), sr, true)
		if err != nil {
			t.Fatal(err)
		}
		const e = 64 // six squarings; the path's hop diameter needs every one
		ref, err := clique.NewSize(a.N, clique.WithDigests())
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		full := NewPower(a, e)
		if err := ref.Run(ctx, full); err != nil {
			t.Fatal(err)
		}

		s, err := clique.NewSize(a.N, clique.WithDigests())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		p := NewPower(a, e)
		if err := s.Run(ctx, &stopAfter{Kernel: p, passes: 3}); err != nil {
			t.Fatal(err)
		}
		digests := s.Digests()
		p.harvest()
		if p.rows != nil || p.base == nil || p.prev == nil {
			t.Fatalf("%s: after three squarings base is held as rows %v and slab %v, prev %v; want both as slabs alone", sr.Name, p.rows != nil, p.base != nil, p.prev != nil)
		}
		var buf bytes.Buffer
		WritePower(ckptio.NewWriter(&buf), p)
		q, err := ReadPower(ckptio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("%s: %v", sr.Name, err)
		}
		if err := s.Run(ctx, q); err != nil {
			t.Fatal(err)
		}
		if !sameBits(q.Result().(*Matrix), full.Result().(*Matrix)) {
			t.Errorf("%s: the resumed power differs from the uninterrupted one", sr.Name)
		}
		if got, want := append(digests, s.Digests()...), ref.Digests(); !slices.Equal(got, want) {
			t.Errorf("%s: resumed digest chain %v, uninterrupted %v", sr.Name, got, want)
		}
		got, want := s.Stats(), ref.Stats()
		if got.Runs != want.Runs || got.Engine.Rounds != want.Engine.Rounds || got.Engine.TotalMsgs != want.Engine.TotalMsgs {
			t.Errorf("%s: resumed runs bill %d passes, %d rounds, %d words; uninterrupted %d, %d, %d", sr.Name,
				got.Runs, got.Engine.Rounds, got.Engine.TotalMsgs, want.Runs, want.Engine.Rounds, want.Engine.TotalMsgs)
		}
	}
}

// relaxCursor encodes a Relaxation cursor field by field, as
// WriteRelaxation lays it out without the held bit: S, B, remaining and
// prev.
func relaxCursor(s *Matrix, b *Dense, remaining int64, prev *Dense) []byte {
	var buf bytes.Buffer
	w := ckptio.NewWriter(&buf)
	WriteMatrix(w, s)
	WriteDense(w, b)
	w.I64(remaining)
	WriteDense(w, prev)
	return buf.Bytes()
}

// TestRelaxationCursorFromEngineFirstProduct: a cursor in the layout a
// build whose first product was an engine pass wrote — after t engine
// products, B = S^t ⊗ (indicator columns), t fewer products remaining,
// and prev = the B before — restores, over every semiring, and finishes
// with the uninterrupted columns. The layout is unchanged and so is
// what it means: a run whose first product is local holds exactly that
// cursor after its (t-1)th engine pass, so the restored run bills pass
// for pass what the rest of an uninterrupted run bills. A cursor with
// products left but no prev is refused.
func TestRelaxationCursorFromEngineFirstProduct(t *testing.T) {
	const products = 8
	sources := []core.NodeID{0, 17}
	for _, sr := range core.AllSemirings() {
		s, err := FromGraph(graph.Path(30).WithUniformRandomWeights(3, 9), sr, true)
		if err != nil {
			t.Fatal(err)
		}
		n := s.N
		var full []passTraffic
		uninterrupted := NewRelaxation(s, sources, products)
		if _, err := runProduct(n, uninterrupted, trafficHook(&full)); err != nil {
			t.Fatal(err)
		}
		want := relaxRef(t, s, Indicator(n, sources, sr), products)
		if got := uninterrupted.Result().(*Dense); !slices.Equal(got.Vals, want.Vals) {
			t.Fatalf("%s: the uninterrupted columns differ from iterated MulDenseRef", sr.Name)
		}
		for _, done := range []int{1, 2, 5} {
			prev := relaxRef(t, s, Indicator(n, sources, sr), done-1)
			b := relaxRef(t, s, prev, 1)
			name := fmt.Sprintf("%s after %d engine products", sr.Name, done)
			blob := relaxCursor(s, b, int64(products-done), prev)
			rx, err := ReadRelaxation(ckptio.NewReader(bytes.NewReader(blob)), false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var resumed []passTraffic
			if _, err := runProduct(n, rx, trafficHook(&resumed)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := rx.Result().(*Dense); !slices.Equal(got.Vals, want.Vals) {
				t.Errorf("%s: the resumed columns differ from the uninterrupted ones", name)
			}
			if tail := full[done-1:]; !slices.Equal(resumed, tail) {
				t.Errorf("%s: resumed passes bill %v, the rest of an uninterrupted run %v", name, resumed, tail)
			}
			blob = relaxCursor(s, b, int64(products-done), nil)
			if _, err := ReadRelaxation(ckptio.NewReader(bytes.NewReader(blob)), false); err == nil || !strings.Contains(err.Error(), "previous columns") {
				t.Errorf("%s without prev: err = %v, want the previous columns error", name, err)
			}
		}
	}
}
