package matmul

import (
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// BenchmarkNewPass times building a pass alone — the sweep that selects
// what each row sends, the wire format, and the packing — on the
// operands of the benchmark's squaring and relaxation workloads: a
// relaxation product over a reflexive (min,+) G(256, 0.15) with 16
// source columns, two products in, streaming Δ; and a semi-naive cube
// squaring of A⁴ over A² for G(160, 0.15), over (min,+) and booleans.
func BenchmarkNewPass(b *testing.B) {
	relaxS, err := FromGraph(graph.RandomGNPWeighted(256, 0.15, 30, 1), core.MinPlus(), true)
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]core.NodeID, 16)
	for i := range sources {
		sources[i] = core.NodeID(i * 16)
	}
	prevB := Indicator(relaxS.N, sources, relaxS.Sr)
	for i := 0; i < 2; i++ {
		if prevB, err = MulDenseRef(relaxS, prevB); err != nil {
			b.Fatal(err)
		}
	}
	relaxB, err := MulDenseRef(relaxS, prevB)
	if err != nil {
		b.Fatal(err)
	}
	squares := func(sr core.Semiring) (x, p *Dense) {
		a, err := FromGraph(graph.RandomGNPWeighted(160, 0.15, 30, 1), sr, true)
		if err != nil {
			b.Fatal(err)
		}
		a2, err := MulRef(a, a)
		if err != nil {
			b.Fatal(err)
		}
		a4, err := MulRef(a2, a2)
		if err != nil {
			b.Fatal(err)
		}
		return dense(a4), dense(a2)
	}
	x, p := squares(core.MinPlus())
	xb, pb := squares(core.BoolOrAnd())
	for _, bc := range []struct {
		name string
		a    *Matrix
		b, p *Dense
		cube bool
	}{
		{"relax-256x16", relaxS, relaxB, prevB, false},
		{"cube-160-minplus", nil, x, p, true},
		{"cube-160-bool", nil, xb, pb, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var acc []int64
			cp := &cubePlan{}
			if !bc.cube {
				cp = rowPlan(bc.a)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pass, err := newPass(bc.b, bc.p, false, acc, cp)
				if err != nil {
					b.Fatal(err)
				}
				acc = pass.flat
			}
		})
	}
}
