package matmul

import (
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// TestSpecialisedAccumulateMatchesGeneric: on random wire formats
// (1-12 index bits, 1-40 bit fields) and rows that hit the One code,
// both ends of the value range, (min,+) sums on either side of
// saturation, values past the sentinel under a negative A entry (the
// one case where only the v < InfWeight test saturates) and (max,min)'s
// One = 2^40, the loop a pass chooses leaves
// exactly the accumulator the generic loop does, in both encodings and
// from a non-trivial starting row.
func TestSpecialisedAccumulateMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, sr := range core.AllSemirings() {
		limit := core.InfWeight // values live in [1, limit)
		if sr.Kind() == core.KindMaxMin {
			limit = core.InfWidth
		}
		for trial := 0; trial < 400; trial++ {
			idxBits := 1 + rng.Intn(12)
			cols := 1<<(idxBits-1) + 1 + rng.Intn(1<<(idxBits-1))
			width := 1 + rng.Intn(40)
			// The widest field code, 2^width - 1, is hi - lo + 2.
			span := max(int64(1)<<width-3, 0)
			lo := min(1+rng.Int63n(1000), limit-1-span)
			if trial%2 == 1 {
				lo = max(1, limit-1-span-rng.Int63n(1000)) // hi just under the limit
			}
			if trial%8 == 7 {
				lo = limit + 1 + rng.Int63n(1000) // values past the sentinel: every (min,+) product saturates
			}
			if sr.Kind() == core.KindBoolOrAnd {
				lo = 2 // a non-boolean value: the format must fall back to the generic loop
			}
			pick := func() int64 {
				switch r := rng.Intn(8); {
				case r == 0 || width == 1:
					return sr.One
				case r == 1:
					return lo
				case r == 2:
					return lo + span
				default:
					return lo + rng.Int63n(span+1)
				}
			}
			row := NewDense(1, cols, sr).Vals
			start := NewDense(1, cols, sr).Vals
			var cs []core.NodeID
			var vs []int64
			for j := range row {
				if rng.Intn(3) == 0 {
					start[j] = pick()
				}
				if rng.Intn(3) != 0 {
					row[j] = pick()
					cs = append(cs, core.NodeID(j))
					vs = append(vs, row[j])
				}
			}
			wf, err := newWireFormat(cols, row, sr)
			if err != nil {
				t.Fatalf("%s idxBits=%d width=%d lo=%d: %v", sr.Name, idxBits, width, lo, err)
			}
			if want := sr.Kind(); wf.loop != want && !(want == core.KindBoolOrAnd && width > 1) {
				t.Fatalf("%s width=%d: format chose loop %d, want %d", sr.Name, wf.width, wf.loop, want)
			}
			for _, aik := range []int64{sr.One, -2000, 1, lo, lo + span, limit / 2, limit - 1, pick()} {
				for name, words := range map[string][]uint64{
					"sparse":     wf.packSparse(nil, cs, vs),
					"positional": wf.packPositional(nil, cs, vs),
				} {
					got := &mulNode{sr: sr, wf: wf, acc: append([]int64(nil), start...)}
					want := &mulNode{sr: sr, wf: wf, acc: append([]int64(nil), start...)}
					for _, w := range words {
						got.accumulate(aik, w)
						want.accumulateGeneric(aik, w)
					}
					for j := range want.acc {
						if got.acc[j] != want.acc[j] {
							t.Fatalf("%s %s idxBits=%d width=%d lo=%d aik=%d: column %d (B=%d, start %d) = %d, generic loop %d",
								sr.Name, name, idxBits, wf.width, lo, aik, j, row[j], start[j], got.acc[j], want.acc[j])
						}
					}
				}
			}
		}
	}
}

// TestLookupACursor: whatever order sources arrive in — ascending as
// the router delivers them, repeated (several words per link),
// descending, or not in the row at all — the cursor returns what a
// fresh search would, and reports an absent source as unsolicited.
func TestLookupACursor(t *testing.T) {
	sr := core.MinPlus()
	nd := &mulNode{sr: sr, aCols: []core.NodeID{2, 3, 7, 11, 12, 40}, aVals: []int64{20, 30, 70, 110, 120, 400}}
	for _, srcs := range [][]core.NodeID{
		{2, 3, 7, 11, 12, 40},
		{3, 3, 3, 12, 12, 40, 40},
		{40, 12, 11, 7, 3, 2},
		{7, 2, 40, 3},
		{0, 2, 5, 7, 41, 12, 1},
		{41, 41, 0},
	} {
		for _, src := range srcs {
			want, wantOK := int64(10*src), src != 0 && src != 1 && src != 5 && src != 41
			if got, ok := nd.lookupA(src); ok != wantOK || (ok && got != want) {
				t.Fatalf("after %v: lookupA(%d) = %d, %v; want %d, %v", srcs, src, got, ok, want, wantOK)
			}
		}
	}
}

// BenchmarkAccumulate times the decode loop alone — one mulNode folding
// the pre-packed words of 64 random 256-column rows, three quarters of
// their columns present (enough rows that the branch predictor cannot
// learn the gaps) — per semiring and per row encoding. It reports ns
// per decoded field and must not allocate (CI fails on a non-zero
// allocs/op).
func BenchmarkAccumulate(b *testing.B) {
	const rows, cols = 64, 256
	for _, sr := range core.AllSemirings() {
		rng := rand.New(rand.NewSource(1))
		m := NewDense(rows, cols, sr)
		for i := range m.Vals {
			switch {
			case rng.Intn(4) == 0:
			case sr.Kind() == core.KindBoolOrAnd || rng.Intn(16) == 0:
				m.Vals[i] = sr.One
			default:
				m.Vals[i] = 1 + rng.Int63n(1000)
			}
		}
		wf, err := newWireFormat(cols, m.Vals, sr)
		if err != nil {
			b.Fatal(err)
		}
		var sparse, positional []uint64
		fields := 0
		for v := 0; v < rows; v++ {
			var cs []core.NodeID
			var vs []int64
			for j, val := range m.Row(core.NodeID(v)) {
				if val != sr.Zero {
					cs = append(cs, core.NodeID(j))
					vs = append(vs, val)
				}
			}
			sparse = wf.packSparse(sparse, cs, vs)
			positional = wf.packPositional(positional, cs, vs)
			fields += len(cs)
		}
		for _, enc := range []struct {
			name  string
			words []uint64
		}{{"sparse", sparse}, {"positional", positional}} {
			words := enc.words
			b.Run(sr.Name+"/"+enc.name, func(b *testing.B) {
				nd := &mulNode{sr: sr, wf: wf, acc: NewDense(1, cols, sr).Vals}
				aik := sr.One
				if sr.Kind() != core.KindBoolOrAnd {
					aik = 500
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, w := range words {
						nd.accumulate(aik, w)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fields), "ns/field")
			})
		}
	}
}
