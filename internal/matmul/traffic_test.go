package matmul

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// linkCheck wraps one pass node and fails the run when any single link
// delivered more than cap words to it in one round.
type linkCheck struct {
	engine.Node
	cap    int
	perSrc []int
}

func (c *linkCheck) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	for _, m := range inbox {
		c.perSrc[m.Src]++
	}
	for _, m := range inbox {
		if got := c.perSrc[m.Src]; got > c.cap {
			return fmt.Errorf("round %d: link %d->%d carried %d words, cap %d", r, m.Src, ctx.ID(), got, c.cap)
		}
		c.perSrc[m.Src] = 0
	}
	return c.Node.Round(ctx, r, inbox)
}

// TestPassTrafficPinned pins the exact message schedule of one sparse
// and one sparse-dense pass — rounds, routed words, and the final link
// of the engine's replay-digest chain, which folds every delivered
// (destination, source, payload) triple of every round — at link
// capacities of 1 and 4 words, and requires it to be the same at 1 and
// 2 workers. A change to how responders pace their rows must leave
// this table untouched; on the way it checks that no link ever carries
// more than its cap in a round.
func TestPassTrafficPinned(t *testing.T) {
	sr := core.MinPlus()
	g := graph.RandomGNPWeighted(48, 0.15, 30, 7)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatal(err)
	}
	// B = A^2: rows of ~40 entries, several wire words each, so pacing
	// spans rounds at either cap.
	a2, err := MulRef(a, a)
	if err != nil {
		t.Fatal(err)
	}
	b := NewDense(a.N, 40, sr) // 40 of A^2's columns, shuffled
	for v := 0; v < a.N; v++ {
		for j := range b.Row(core.NodeID(v)) {
			b.Row(core.NodeID(v))[j] = a2.At(core.NodeID(v), core.NodeID((5*j+3)%a.N))
		}
	}
	passes := map[string]func() (*Pass, error){
		"sparse": func() (*Pass, error) { return NewPass(a, a2, false) },
		"dense":  func() (*Pass, error) { return NewDensePass(a, b, false) },
	}
	golden := []struct {
		pass   string
		cap    int
		rounds int
		words  uint64
		digest uint64
	}{
		{"sparse", 1, 8, 2387, 0xae48a403cdba7d7d},
		{"sparse", 4, 4, 2387, 0xa5411a25f0c10d1b},
		{"dense", 1, 7, 2065, 0x1093c1ab64f31dcf},
		{"dense", 4, 4, 2065, 0x7f5443ed770b662f},
	}
	for _, want := range golden {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/cap%d/w%d", want.pass, want.cap, workers), func(t *testing.T) {
				p, err := passes[want.pass]()
				if err != nil {
					t.Fatal(err)
				}
				nodes := make([]engine.Node, a.N)
				for v, nd := range p.Nodes() {
					nodes[v] = &linkCheck{Node: nd, cap: want.cap, perSrc: make([]int, a.N)}
				}
				e, err := engine.New(a.N, engine.Options{
					Workers:       workers,
					Budget:        core.Budget{BitsPerLink: want.cap * core.WordBits, MsgBits: core.WordBits},
					RecordDigests: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				st, err := e.RunBounded(context.Background(), nodes, p.MaxRoundsHint())
				if err != nil {
					t.Fatal(err)
				}
				digests := e.Digests()
				digest := digests[len(digests)-1]
				if st.Rounds != want.rounds || st.TotalMsgs != want.words || digest != want.digest {
					t.Errorf("rounds/words/digest = %d/%d/%#016x, golden %d/%d/%#016x",
						st.Rounds, st.TotalMsgs, digest, want.rounds, want.words, want.digest)
				}
			})
		}
	}
}

// passTraffic is one pass's model-level cost.
type passTraffic struct {
	rounds int
	words  uint64
}

// predictTraffic is the traffic model of one Power product a ⊗ b at
// link cap c, derived from the matrices alone: a squaring when a is b,
// semi-naive over prev (nil streams whole rows), voting when vote is
// set.
//
//   - Requests: one word per off-diagonal nonzero of a, nnz(X) - n over
//     a reflexive X.
//   - Data: node v asks k for its whole row when prev is nil or
//     a[v][k] != prev[v][k], for Δ[k] (the entries of b[k] that prev[k]
//     does not hold with the same value) otherwise;
//     responder k sends (#whole-row requesters × its packed width) +
//     (#Δ requesters × Δ[k]'s packed width).
//   - Rounds: F = 1 + ceil(widest streamed row / c), or 0 when nobody
//     asks for anything, and the bare pass runs rounds 0..F.
//   - A vote that finds the product equal to b costs nothing. Otherwise
//     every changed row but node 0's sends a ballot and node 0 tells the
//     other n-1 nodes, one round later when its own row did not change.
func predictTraffic(t *testing.T, a, b, prev *Matrix, c int, vote bool) passTraffic {
	t.Helper()
	n := b.N
	wf, err := newWireFormat(n, b.Vals, b.Sr, "matrix")
	if err != nil {
		t.Fatal(err)
	}
	width := func(cols []core.NodeID, vals []int64) int { return len(wf.packRow(nil, cols, vals)) }
	var pt passTraffic
	wholeAsks, deltaAsks := make([]int, n), make([]int, n)
	for v := 0; v < n; v++ {
		cols, vals := a.Row(core.NodeID(v))
		for i, k := range cols {
			if int(k) == v {
				continue
			}
			pt.words++
			if prev == nil || prev.At(core.NodeID(v), k) != vals[i] {
				wholeAsks[k]++
			} else {
				deltaAsks[k]++
			}
		}
	}
	widest := -1
	for k := 0; k < n; k++ {
		cols, vals := b.Row(core.NodeID(k))
		whole := width(cols, vals)
		var dCols []core.NodeID
		var dVals []int64
		if prev != nil {
			for i, j := range cols {
				if prev.At(core.NodeID(k), j) != vals[i] {
					dCols, dVals = append(dCols, j), append(dVals, vals[i])
				}
			}
		}
		delta := width(dCols, dVals)
		pt.words += uint64(wholeAsks[k]*whole + deltaAsks[k]*delta)
		switch {
		case wholeAsks[k] > 0:
			widest = max(widest, whole)
		case deltaAsks[k] > 0:
			widest = max(widest, delta)
		}
	}
	final := 0
	if widest >= 0 {
		final = 1 + (widest+c-1)/c
	}
	pt.rounds = final + 1
	if !vote {
		return pt
	}
	prod, err := MulRef(a, b)
	if err != nil {
		t.Fatal(err)
	}
	changed := make([]bool, n)
	ballots := 0
	for v := range changed {
		pc, pv := prod.Row(core.NodeID(v))
		bc, bv := b.Row(core.NodeID(v))
		changed[v] = !slices.Equal(pc, bc) || !slices.Equal(pv, bv)
		if changed[v] && v != 0 {
			ballots++
		}
	}
	switch {
	case changed[0]:
		pt.rounds++
	case ballots > 0:
		pt.rounds += 2
	default:
		return pt
	}
	pt.words += uint64(ballots + n - 1)
	return pt
}

// modelled drives a Power and, as each pass starts, records what
// predictTraffic says it will cost.
type modelled struct {
	*Power
	t    *testing.T
	cap  int
	want []passTraffic
	semi int // semi-naive squarings among the passes
}

func (m *modelled) Nodes(g *graph.CSR) ([]engine.Node, error) {
	nodes, err := m.Power.Nodes(g)
	if m.pass == nil {
		return nodes, err
	}
	left, prev := m.result, (*Matrix)(nil)
	if m.passIsSquare {
		left, prev = m.base, m.prev
	}
	if prev != nil {
		m.semi++
		if !oneDiagonal(prev) {
			m.t.Errorf("a semi-naive squaring over a previous operand without One on its diagonal")
		}
	}
	m.want = append(m.want, predictTraffic(m.t, left, m.base, prev, m.cap, m.pass.voters != nil))
	return nodes, err
}

// TestPowerTrafficModel: every pass of the golden graph's power kernels
// — apsp, closure and widest square until stable, hop-limited squares
// and multiplies to 7 hops — bills, as a round hook counts it, exactly
// the rounds and words predictTraffic gives, at link caps 1 and 4. Each
// kernel runs semi-naive squarings, so the model covers both request
// kinds, and its result is the reference power's.
func TestPowerTrafficModel(t *testing.T) {
	g := graph.RandomGNPWeighted(48, 0.15, 30, 7)
	for _, tc := range []struct {
		name string
		sr   core.Semiring
		e    int
	}{
		{"apsp", core.MinPlus(), 64},
		{"closure", core.BoolOrAnd(), 64},
		{"widest", core.MaxMin(), 64},
		{"hop-limited", core.MinPlus(), 7},
	} {
		for _, cap := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/cap%d", tc.name, cap), func(t *testing.T) {
				a, err := FromGraph(g, tc.sr, true)
				if err != nil {
					t.Fatal(err)
				}
				var got []passTraffic
				hook := func(rs engine.RoundStats) {
					if rs.Round == 0 {
						got = append(got, passTraffic{})
					}
					got[len(got)-1].rounds++
					got[len(got)-1].words += rs.Msgs
				}
				m := &modelled{Power: NewPower(a, tc.e), t: t, cap: cap}
				budget := core.Budget{BitsPerLink: cap * core.WordBits, MsgBits: core.WordBits}
				if _, err := runProduct(a.N, m, clique.WithBudget(budget), clique.WithRoundHook(hook)); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, m.want) {
					t.Errorf("per-pass rounds/words %v, model %v", got, m.want)
				}
				if m.semi == 0 {
					t.Error("no squaring ran semi-naive; the fixture must exercise the delta requests")
				}
				want := a
				for i := 1; i < tc.e; i++ {
					if want, err = MulRef(want, a); err != nil {
						t.Fatal(err)
					}
				}
				matricesEqual(t, m.Result().(*Matrix), want, tc.name)
			})
		}
	}
}
