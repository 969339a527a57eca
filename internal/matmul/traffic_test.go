package matmul

import (
	"context"
	"fmt"
	"reflect"
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

// predictTraffic is the traffic model of one product pass at link cap
// c, derived from its operands alone. a is the pass's left operand:
// each off-diagonal nonzero a[v][k] makes v a requester of row k.
// widths[k] is the packed width of what row k streams. heard marks a
// later product of a Relaxation, whose responders kept the requesters
// they recorded in its first product. changed says, node by node,
// whether the product's row differs from B's; it is nil on a pass that
// does not vote.
//
//   - Requests: one word per off-diagonal nonzero of a, nnz(a) - n over
//     a reflexive a; none when heard.
//   - Data: responder k sends #requesters(k) × widths[k] words.
//   - Rounds: F = ceil(widest requested row / c), plus one for the
//     request round unless heard, or F = 0 when nobody requests
//     anything; the bare pass runs rounds 0..F.
//   - A vote that finds the product equal to B costs nothing. Otherwise
//     every changed row but node 0's sends a ballot and node 0 tells the
//     other n-1 nodes, one round later when its own row did not change.
func predictTraffic(a *Matrix, widths []int, heard bool, c int, changed []bool) passTraffic {
	reqs := make([]int, a.N)
	for v := 0; v < a.N; v++ {
		cols, _ := a.Row(core.NodeID(v))
		for _, k := range cols {
			if int(k) != v {
				reqs[k]++
			}
		}
	}
	var pt passTraffic
	widest := -1
	for k, r := range reqs {
		if !heard {
			pt.words += uint64(r)
		}
		pt.words += uint64(r * widths[k])
		if r > 0 {
			widest = max(widest, widths[k])
		}
	}
	final := 0
	if widest >= 0 {
		final = (widest + c - 1) / c
		if !heard {
			final++
		}
	}
	pt.rounds = final + 1
	if changed == nil {
		return pt
	}
	ballots := 0
	for v, ch := range changed {
		if ch && v != 0 {
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
	pt.words += uint64(ballots + len(changed) - 1)
	return pt
}

// powerTraffic models one Power product a ⊗ b, a squaring when a is b.
// A semi-naive squaring (prev set) streams Δ[k], the entries of b[k]
// that prev[k] does not hold with the same value, to every requester:
// nnz(X) - n request words, #requesters(k) × width(Δ[k]) data words and
// 1 + ceil(widest Δ / c) rounds before its vote. Any other product
// streams whole rows.
func powerTraffic(t *testing.T, a, b, prev *Matrix, c int, vote bool) passTraffic {
	t.Helper()
	wf, err := newWireFormat(b.N, b.Vals, b.Sr, "matrix")
	if err != nil {
		t.Fatal(err)
	}
	widths := make([]int, b.N)
	for k := range widths {
		cols, vals := b.Row(core.NodeID(k))
		if prev != nil {
			var dCols []core.NodeID
			var dVals []int64
			for i, j := range cols {
				if prev.At(core.NodeID(k), j) != vals[i] {
					dCols, dVals = append(dCols, j), append(dVals, vals[i])
				}
			}
			cols, vals = dCols, dVals
		}
		widths[k] = len(wf.packRow(nil, cols, vals))
	}
	var changed []bool
	if vote {
		prod, err := MulRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		changed = make([]bool, b.N)
		for v := range changed {
			pc, pv := prod.Row(core.NodeID(v))
			bc, bv := b.Row(core.NodeID(v))
			changed[v] = !slices.Equal(pc, bc) || !slices.Equal(pv, bv)
		}
	}
	return predictTraffic(a, widths, false, c, changed)
}

// relaxTraffic models one Relaxation product s ⊗ b. A later product
// (heard) runs no request round: its requesters are the ones recorded
// in the first product, the same nodes over a fixed S. Where prev is
// set — the B of the product before, over a reflexive S — only the
// entries of b that differ from it stream. The wire format is derived
// from the values sent.
func relaxTraffic(t *testing.T, s *Matrix, b, prev *Dense, heard bool, c int, vote bool) passTraffic {
	t.Helper()
	sent := func(i int) bool {
		return b.Vals[i] != b.Sr.Zero && (prev == nil || b.Vals[i] != prev.Vals[i])
	}
	var rg valueRange
	for i, v := range b.Vals {
		if sent(i) && v != b.Sr.One {
			rg.add(v)
		}
	}
	wf, err := rg.format(b.K, b.Sr, "dense")
	if err != nil {
		t.Fatal(err)
	}
	widths := make([]int, b.N)
	for k := range widths {
		var cols []core.NodeID
		var vals []int64
		for j := 0; j < b.K; j++ {
			if i := k*b.K + j; sent(i) {
				cols, vals = append(cols, core.NodeID(j)), append(vals, b.Vals[i])
			}
		}
		widths[k] = len(wf.packRow(nil, cols, vals))
	}
	var changed []bool
	if vote {
		prod, err := MulDenseRef(s, b)
		if err != nil {
			t.Fatal(err)
		}
		changed = make([]bool, b.N)
		for v := range changed {
			changed[v] = !slices.Equal(prod.Row(core.NodeID(v)), b.Row(core.NodeID(v)))
		}
	}
	return predictTraffic(s, widths, heard, c, changed)
}

// predictPower is powerTraffic for the product p has in flight.
func predictPower(t *testing.T, p *Power, c int) passTraffic {
	left, prev := p.result, (*Matrix)(nil)
	if p.passIsSquare {
		left, prev = p.base, p.prev
	}
	return powerTraffic(t, left, p.base, prev, c, p.pass.voters != nil)
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

func (m *modelled) Next(g *graph.CSR) (clique.Pass, error) {
	pass, err := m.Power.Next(g)
	if m.pass == nil {
		return pass, err
	}
	if m.passIsSquare && m.prev != nil {
		m.semi++
		if !oneDiagonal(m.prev) {
			m.t.Errorf("a semi-naive squaring over a previous operand without One on its diagonal")
		}
	}
	m.want = append(m.want, predictPower(m.t, m.Power, m.cap))
	return pass, err
}

// trafficHook returns a round hook that adds up each pass's rounds and
// words into *got, one entry per pass.
func trafficHook(got *[]passTraffic) clique.Option {
	return clique.WithRoundHook(func(rs engine.RoundStats) {
		if rs.Round == 0 {
			*got = append(*got, passTraffic{})
		}
		(*got)[len(*got)-1].rounds++
		(*got)[len(*got)-1].words += rs.Msgs
	})
}

// capBudget is a budget of c words per link per round.
func capBudget(c int) clique.Option {
	return clique.WithBudget(core.Budget{BitsPerLink: c * core.WordBits, MsgBits: core.WordBits})
}

// TestPowerTrafficModel: every pass of the golden graph's power kernels
// — apsp, closure and widest square until stable, hop-limited squares
// and multiplies to 7 hops — bills, as a round hook counts it, exactly
// the rounds and words predictTraffic gives, at link caps 1 and 4. Each
// kernel runs semi-naive squarings, so the model covers Δ-only streams,
// and its result is the reference power's.
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
				m := &modelled{Power: NewPower(a, tc.e), t: t, cap: cap}
				if _, err := runProduct(a.N, m, capBudget(cap), trafficHook(&got)); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, m.want) {
					t.Errorf("per-pass rounds/words %v, model %v", got, m.want)
				}
				if m.semi == 0 {
					t.Error("no squaring ran semi-naive; the fixture must exercise the Δ-only streams")
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

// loopModel drives a registered kernel whose passes are all Power and
// Relaxation products and, as each pass starts, records what the model
// says it will cost. The model tracks each Relaxation itself: every
// product after its first is heard, and over a reflexive S streams only
// what changed since the B it saw last.
type loopModel struct {
	clique.Kernel
	t     *testing.T
	cap   int
	want  []passTraffic
	lastB map[*Relaxation]*Dense // the B of each Relaxation's last product
	later int                    // Relaxation products after the first
}

func (m *loopModel) Next(g *graph.CSR) (clique.Pass, error) {
	pass, err := m.Kernel.Next(g)
	if err != nil || pass.Nodes == nil {
		return pass, err
	}
	if pass.MaxRounds == 0 {
		return pass, fmt.Errorf("pass %d sizes no round bound", len(m.want))
	}
	switch loop := inFlight(reflect.ValueOf(m.Kernel), map[uintptr]bool{}).(type) {
	case *Power:
		m.want = append(m.want, predictPower(m.t, loop, m.cap))
	case *Relaxation:
		prev, heard := m.lastB[loop]
		if heard {
			m.later++
		}
		if !oneDiagonal(loop.s) {
			prev = nil
		}
		m.lastB[loop] = loop.b
		m.want = append(m.want, relaxTraffic(m.t, loop.s, loop.b, prev, heard, m.cap, loop.pass.voters != nil))
	default:
		return pass, fmt.Errorf("pass %d is neither a Power nor a Relaxation product", len(m.want))
	}
	return pass, nil
}

// inFlight returns the Power or Relaxation reachable from v whose
// product is in flight, or nil. The kernels under test hold their
// product loops in unexported fields of packages that import this one,
// so the walk goes by reflection.
func inFlight(v reflect.Value, seen map[uintptr]bool) any {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			return inFlight(v.Elem(), seen)
		}
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return nil
		}
		seen[v.Pointer()] = true
		switch v.Type() {
		case reflect.TypeOf((*Power)(nil)):
			if p := (*Power)(v.UnsafePointer()); p.pass != nil {
				return p
			}
			return nil
		case reflect.TypeOf((*Relaxation)(nil)):
			if r := (*Relaxation)(v.UnsafePointer()); r.pass != nil {
				return r
			}
			return nil
		}
		return inFlight(v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if x := inFlight(v.Field(i), seen); x != nil {
				return x
			}
		}
	}
	return nil
}

// TestKernelTrafficModel: every pass of the golden graph's approx-sssp
// (hopset construction, then the stage-2 relaxation) and ksource (the
// stage-1 power, then the stage-2 relaxation) bills, as a round hook
// counts it, exactly what the model gives, at link caps 1 and 4. Both
// run Relaxation products after the first, so the request-free later
// products and their votes are covered.
func TestKernelTrafficModel(t *testing.T) {
	g := graph.RandomGNPWeighted(48, 0.15, 30, 7)
	for _, name := range []string{"approx-sssp", "ksource"} {
		for _, cap := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/cap%d", name, cap), func(t *testing.T) {
				k, err := clique.NewKernel(name, g)
				if err != nil {
					t.Fatal(err)
				}
				var got []passTraffic
				m := &loopModel{Kernel: k, t: t, cap: cap, lastB: map[*Relaxation]*Dense{}}
				s, err := clique.New(g, capBudget(cap), trafficHook(&got))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.Run(context.Background(), m); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, m.want) {
					t.Errorf("per-pass rounds/words %v, model %v", got, m.want)
				}
				if m.later == 0 {
					t.Error("no Relaxation ran a second product; the fixture must exercise heard products")
				}
			})
		}
	}
}
