package matmul

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// squaring is one squaring of a Power chain as chainWatch saw it start.
type squaring struct {
	x, prev *Matrix // the operand and, on a cube squaring, its P
	cube    bool    // it runs by the cube
	update  bool    // its cube nodes held P's blocks, so it ships Δ for X
	checked bool    // its result has been checked against MulRef
	model   cubeModel
	pass    int // its index among the chain's passes
}

// chainWatch drives a Power and records every squaring it starts; as each
// squaring is harvested it checks the new base against MulRef of the
// operand, and each cube squaring against the traffic model.
type chainWatch struct {
	*Power
	t    *testing.T
	sqs  []squaring
	seen int // passes started
}

func (w *chainWatch) Next(g *graph.CSR) (clique.Pass, error) {
	w.harvest()
	if n := len(w.sqs); n > 0 && !w.sqs[n-1].checked {
		last := &w.sqs[n-1]
		want, err := MulRef(last.x, last.x)
		if err != nil {
			w.t.Fatal(err)
		}
		if !sameBits(sparse(w.base), want) {
			w.t.Errorf("squaring %d (cube %v, update %v) differs from MulRef", n, last.cube, last.update)
		}
		last.checked = true
	}
	pass, err := w.Power.Next(g)
	if err != nil || pass.Nodes == nil {
		return pass, err
	}
	if w.passIsSquare {
		sq := squaring{x: sparse(w.base), cube: w.pass.cb != nil, pass: w.seen}
		if sq.cube {
			sq.update = w.pass.cb.held
			sq.prev = sparse(w.prev)
			sq.model = predictCube(w.t, sq.x, w.prev, w.pass.voting, sq.update)
		}
		w.sqs = append(w.sqs, sq)
	}
	w.seen++
	return pass, nil
}

// roundWords returns a round hook that records the words of every round
// of every pass, one slice per pass.
func roundWords(got *[][]uint64) clique.Option {
	return clique.WithRoundHook(func(rs engine.RoundStats) {
		if rs.Round == 0 {
			*got = append(*got, nil)
		}
		(*got)[len(*got)-1] = append((*got)[len(*got)-1], rs.Msgs)
	})
}

// TestKeptBlocksAcrossChain: over every semiring, on chains whose cube
// has q = 3 or 4, every cube squaring after a chain's first ships and
// decodes Δ where it would ship X. Each squaring returns MulRef of its
// operand bit for bit; each bills what predictCube gives, and its phase 1
// exactly the words of the Δ-only segments, no more than shipping X
// would; and once the chain has its result, Power no longer takes the
// cube nodes to hold their blocks.
func TestKeptBlocksAcrossChain(t *testing.T) {
	for _, sr := range core.AllSemirings() {
		for _, g := range []*graph.CSR{
			graph.Path(40).WithUniformRandomWeights(2, 9),
			graph.RandomGNP(64, 0.05, 3).WithUniformRandomWeights(2, 20),
		} {
			name := fmt.Sprintf("%s/n%d", sr.Name, g.N)
			a, err := FromGraph(g, sr, true)
			if err != nil {
				t.Fatal(err)
			}
			w := &chainWatch{Power: NewPower(a, 64), t: t}
			var rounds [][]uint64
			if _, err := runProduct(a.N, w, roundWords(&rounds)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(rounds) != w.seen {
				t.Fatalf("%s: %d passes ran, %d started", name, len(rounds), w.seen)
			}
			updates := 0
			var shipped, whole uint64
			for i, sq := range w.sqs {
				if !sq.cube {
					continue
				}
				got := rounds[sq.pass]
				var words, phase1 uint64
				for r, m := range got {
					words += m
					if r < sq.model.f1 {
						phase1 += m
					}
				}
				if len(got) != sq.model.rounds || words != sq.model.words {
					t.Errorf("%s: squaring %d bills %d rounds and %d words, model %d and %d", name, i+1, len(got), words, sq.model.rounds, sq.model.words)
				}
				if phase1 != sq.model.phase1 {
					t.Errorf("%s: squaring %d sends %d words in phase 1, model %d", name, i+1, phase1, sq.model.phase1)
				}
				if !sq.update {
					continue
				}
				updates++
				asX := predictCube(t, sq.x, dense(sq.prev), false, false)
				shipped, whole = shipped+phase1, whole+asX.phase1
				if phase1 > asX.phase1 {
					t.Errorf("%s: squaring %d ships %d phase-1 words of Δ, more than the %d of X", name, i+1, phase1, asX.phase1)
				}
			}
			if updates < 2 || shipped >= whole {
				t.Errorf("%s: %d squarings shipped Δ for X, %d phase-1 words against %d for X; want at least 2, and fewer", name, updates, shipped, whole)
			}
			if w.Result() == nil || w.held() {
				t.Errorf("%s: result %v, and the chain still holds blocks: %v", name, w.Result() != nil, w.held())
			}
		}
	}
}

// TestKeptBlocksStaleAfterRowPull: a squaring that runs row-pull leaves
// the cube nodes' blocks stale, so the next cube squaring ships all of X
// again. The fixture is a (min,+) cycle of 13 nodes, 12 edges of weight
// 1 and one of weight H = 2^57 − 2, beside 17 isolated nodes (n = 30,
// q = 3, 5 column-index bits). Up to 8 hops some pairs still go over
// the heavy edge: A² peaks at H + 1, whose products fit a 58-bit field,
// A⁴ and A⁸ at H + 3, whose doubled value needs a 59th bit, so those
// squarings fall back to row-pull. At 16 hops every pair goes round the
// light side and the last squaring runs by the cube again, over blocks
// its nodes last held at A². It must ship X, bill what the model gives,
// and return the power. The fallen-back squarings are the semi-naive
// row-pull products, streaming Δ, that a chain still runs.
func TestKeptBlocksStaleAfterRowPull(t *testing.T) {
	const heavy = 1<<57 - 2
	var edges strings.Builder
	fmt.Fprintf(&edges, "p 30\n0 1 %d\n0 2 1\n", heavy)
	for v := 2; v < 12; v++ {
		fmt.Fprintf(&edges, "%d %d 1\n", v, v+1)
	}
	edges.WriteString("12 1 1\n")
	g, err := graph.LoadEdgeList(strings.NewReader(edges.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := FromGraph(g, core.MinPlus(), true)
	if err != nil {
		t.Fatal(err)
	}
	w := &chainWatch{Power: NewPower(a, 32), t: t}
	m := newLoopModel(t, w)
	var got []passTraffic
	if _, err := runProduct(a.N, m, trafficHook(&got)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, m.want) {
		t.Errorf("per-pass rounds/words %v, model %v", got, m.want)
	}
	var kinds []string
	for _, sq := range w.sqs {
		switch {
		case sq.update:
			kinds = append(kinds, "Δ")
		case sq.cube:
			kinds = append(kinds, "X")
		default:
			kinds = append(kinds, "row")
		}
	}
	if want := []string{"row", "X", "row", "row", "X"}; !slices.Equal(kinds, want) {
		t.Fatalf("squarings ran %v, want %v", kinds, want)
	}
	want := a
	for i := 0; i < 5; i++ {
		if want, err = MulRef(want, want); err != nil {
			t.Fatal(err)
		}
	}
	matricesEqual(t, w.Result().(*Matrix), want, "A^32")
}

// TestPowerCursorWithoutHeldBit: a cursor written before it carried
// whether the cube nodes held their blocks — phase word 0 or 1, here
// taken after two cube squarings, the second of which shipped Δ —
// restores with the blocks stale. Its next squaring ships all of X, so
// it bills more words than the rest of an uninterrupted run, and it
// returns the same matrix. The same cursor with the bit restores them
// held, and bills what the uninterrupted run does. The fixture is a
// path of 40 nodes in shuffled order, so a row's entries scatter over
// its blocks and a segment of Δ packs into fewer words than one of X.
func TestPowerCursorWithoutHeldBit(t *testing.T) {
	const n = 40
	order := rand.New(rand.NewSource(5)).Perm(n)
	var edges strings.Builder
	fmt.Fprintf(&edges, "p %d\n", n)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&edges, "%d %d %d\n", order[i-1], order[i], 2+i%7)
	}
	g, err := graph.LoadEdgeList(strings.NewReader(edges.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range core.AllSemirings() {
		a, err := FromGraph(g, sr, true)
		if err != nil {
			t.Fatal(err)
		}
		const e = 64
		full := NewPower(a, e)
		var fullTraffic []passTraffic
		if _, err := runProduct(a.N, full, trafficHook(&fullTraffic)); err != nil {
			t.Fatal(err)
		}
		p := NewPower(a, e)
		if _, err := runProduct(a.N, &stopAfter{Kernel: p, passes: 3}); err != nil {
			t.Fatal(err)
		}
		p.harvest()
		if !p.held() {
			t.Fatalf("%s: after a cube squaring the chain holds no valid blocks", sr.Name)
		}
		var tail uint64
		for _, pt := range fullTraffic[3:] {
			tail += pt.words
		}
		for _, bit := range []bool{false, true} {
			phase := int64(p.phase)
			if bit {
				phase |= 2
			}
			blob := powerCursor(int64(p.e), phase, p.baseRows(), nil, sparse(p.prev))
			q, err := ReadPower(ckptio.NewReader(bytes.NewReader(blob)))
			if err != nil {
				t.Fatalf("%s: %v", sr.Name, err)
			}
			if q.held() != bit {
				t.Fatalf("%s, bit %v: restored held blocks %v", sr.Name, bit, q.held())
			}
			st, err := runProduct(a.N, q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(q.Result().(*Matrix), full.Result().(*Matrix)) {
				t.Errorf("%s, bit %v: the resumed power differs from the uninterrupted one", sr.Name, bit)
			}
			if bit && st.TotalMsgs != tail || !bit && st.TotalMsgs <= tail {
				t.Errorf("%s, bit %v: the resumed squarings bill %d words, the rest of an uninterrupted run %d", sr.Name, bit, st.TotalMsgs, tail)
			}
		}
	}
}

// TestHeldRelaxationResumesExactly: a 2D Relaxation checkpointed
// (WriteRelaxation, ReadRelaxation) at every pass boundary resumes to
// bill every remaining pass exactly the rounds and words the
// uninterrupted run billed — a cursor whose held bit is set restores
// cube nodes that hold S's blocks, so its next product ships only Δ, as
// the run it continues does — and returns the same columns. A cursor
// that says its cube nodes hold blocks of an S that prices as row-pull
// is refused.
func TestHeldRelaxationResumesExactly(t *testing.T) {
	const n = 65
	for _, sr := range []core.Semiring{core.MinPlus(), core.MaxMin(), generic(core.MinPlus())} {
		s, sources := relaxFixture(t, n, 2, sr)
		full := NewRelaxation(s, sources, n)
		var want []passTraffic
		if _, err := runProduct(n, full, trafficHook(&want)); err != nil {
			t.Fatal(err)
		}
		heldStops := 0
		for stop := 1; stop < len(want); stop++ {
			x := NewRelaxation(s, sources, n)
			if _, err := runProduct(n, &stopAfter{Kernel: x, passes: stop}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			WriteRelaxation(ckptio.NewWriter(&buf), x)
			if x.cube != nil && x.cube.held {
				heldStops++
			}
			y, err := ReadRelaxation(ckptio.NewReader(&buf), true)
			if err != nil {
				t.Fatalf("%s, stop %d: %v", sr.Name, stop, err)
			}
			var got []passTraffic
			if _, err := runProduct(n, y, trafficHook(&got)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[stop:]) {
				t.Errorf("%s, stop %d: resumed passes bill %v, the uninterrupted run %v", sr.Name, stop, got, want[stop:])
			}
			if !slices.Equal(y.Result().(*Dense).Vals, full.Result().(*Dense).Vals) {
				t.Errorf("%s, stop %d: the resumed columns differ", sr.Name, stop)
			}
		}
		if heldStops == 0 {
			t.Errorf("%s: no stop left the cube nodes holding S's blocks", sr.Name)
		}
	}
	sparseS, err := FromGraph(graph.Path(20), core.MinPlus(), true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := ckptio.NewWriter(&buf)
	ind := Indicator(20, []core.NodeID{0}, core.MinPlus())
	WriteMatrix(w, sparseS)
	WriteDense(w, ind)
	w.I64(3)
	WriteDense(w, ind)
	w.Bool(true)
	if _, err := ReadRelaxation(ckptio.NewReader(&buf), true); err == nil || !strings.Contains(err.Error(), "hold blocks") {
		t.Errorf("a held cursor over an S that prices as row-pull restored (err %v)", err)
	}
}
