package matmul

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// TestSpecialisedAccumulateMatchesGeneric: on random wire formats
// (1-12 index bits, 1-40 bit fields) and rows that hit the One code,
// both ends of the value range, (min,+) sums on either side of
// saturation, values past the sentinel under a negative A entry (the
// one case where only the v < InfWeight test saturates) and (max,min)'s
// One = 2^40, the loop a pass chooses leaves
// exactly the accumulator the generic loop does, in both encodings and
// from a non-trivial starting row — one with entries below and above
// InfWeight, under positional words of mostly empty fields too.
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
			// Every fourth trial's rows are sparse, so its positional words
			// are mostly empty fields, which must leave the accumulator
			// exactly as it is — also where it starts above InfWeight.
			sparseRow := trial%4 == 3
			for j := range row {
				switch rng.Intn(4) {
				case 0:
					start[j] = pick()
				case 1:
					start[j] = core.InfWeight + 1 + rng.Int63n(1<<20)
				}
				if sparseRow && rng.Intn(8) == 0 || !sparseRow && rng.Intn(3) != 0 {
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

// roundFunc is a node whose handler is a function.
type roundFunc func(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error

func (f roundFunc) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	return f(ctx, r, inbox)
}

// TestProductWalk: whatever order an inbox's sources arrive in —
// ascending as the router delivers them, repeated (several words per
// link), descending, or shuffled — product's walk against A's row folds
// each word with its sender's entry of A, leaving exactly the row an
// ascending inbox leaves; a source not in the row, wherever it falls,
// fails the round as unsolicited data.
func TestProductWalk(t *testing.T) {
	const cols = 64
	sr := core.MinPlus()
	aCols := []core.NodeID{2, 3, 7, 11, 12, 40}
	aVals := []int64{20, 30, 70, 110, 120, 400}
	rng := rand.New(rand.NewSource(43))
	b := NewDense(42, cols, sr)
	for i := range b.Vals {
		if rng.Intn(3) == 0 {
			b.Vals[i] = 1 + rng.Int63n(500)
		}
	}
	wf, err := newWireFormat(cols, b.Vals, sr)
	if err != nil {
		t.Fatal(err)
	}
	// words[k] is source k's row of B, packed: every source's row spans
	// several words, so a source repeats in one inbox as in an unpaced
	// pass.
	words := make([][]uint64, b.N)
	for k := range words {
		var cs []core.NodeID
		var vs []int64
		for j, v := range b.Row(core.NodeID(k)) {
			if v != sr.Zero {
				cs, vs = append(cs, core.NodeID(j)), append(vs, v)
			}
		}
		words[k] = wf.packSparse(nil, cs, vs)
	}
	start := NewDense(1, cols, sr).Vals
	for j := range start {
		start[j] = 300 + rng.Int63n(500)
	}
	// fold runs one round of the product of a node holding aCols over the
	// inbox carrying the rows of srcs in that order, and returns its row
	// of C and the round's error.
	fold := func(srcs []core.NodeID) ([]int64, error) {
		var inbox []engine.Message
		for _, k := range srcs {
			for _, w := range words[k] {
				inbox = append(inbox, engine.Message{Src: k, Payload: w})
			}
		}
		nd := &mulNode{sr: sr, wf: wf, aCols: aCols, aVals: aVals, acc: append([]int64(nil), start...)}
		var err error
		node := roundFunc(func(ctx *engine.Ctx, r core.Round, _ []engine.Message) error {
			if r == 0 {
				_, _, err = nd.fold(ctx.ID(), inbox, true)
			}
			return nil
		})
		if _, rerr := engine.RunOnce([]engine.Node{node}, engine.Options{}); rerr != nil {
			t.Fatal(rerr)
		}
		return nd.acc, err
	}
	want, err := fold(aCols)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]int64(nil), start...)
	for i, k := range aCols {
		nd := &mulNode{sr: sr, wf: wf, acc: ref}
		for _, w := range words[k] {
			nd.accumulateGeneric(aVals[i], w)
		}
	}
	if !slices.Equal(want, ref) {
		t.Fatalf("ascending inbox folds %v, the generic loop %v", want, ref)
	}
	for _, srcs := range [][]core.NodeID{
		{2, 3, 3, 3, 7, 11, 12, 12, 40, 40},
		{40, 12, 11, 7, 3, 2},
		{7, 2, 40, 3, 11, 12},
		{2, 2, 40, 40, 3, 7, 7, 11, 12, 12},
	} {
		got, err := fold(srcs)
		if err != nil {
			t.Fatalf("inbox from %v: %v", srcs, err)
		}
		// min is idempotent, so a row folded twice changes nothing.
		if !slices.Equal(got, want) {
			t.Errorf("inbox from %v folds %v, an ascending one %v", srcs, got, want)
		}
	}
	for _, tc := range []struct {
		srcs   []core.NodeID
		absent core.NodeID
	}{
		{[]core.NodeID{0, 2, 5}, 0},
		{[]core.NodeID{2, 5, 7}, 5},
		{[]core.NodeID{2, 3, 7, 11, 12, 40, 41}, 41},
		{[]core.NodeID{40, 12, 1}, 1},
		{[]core.NodeID{41, 41, 0}, 41},
	} {
		_, err := fold(tc.srcs)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsolicited data from %d", tc.absent)) {
			t.Errorf("inbox from %v: err = %v, want unsolicited data from %d", tc.srcs, err, tc.absent)
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
