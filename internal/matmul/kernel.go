package matmul

import (
	"slices"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// The two product loops every multiplying kernel drives. Each is a
// clique session kernel that carries its operands (so it runs on
// graph-free sessions, clique.NewSize, and ignores the session graph),
// runs one engine pass per product, and stops at the first product that
// changes nothing: each product that another one may still follow takes
// that verdict in-engine (mulNode.tally: at most 2 rounds and 2(n-1)
// words, none when it confirms the fixpoint), where its accumulator can
// start at B — a semi-naive product, or a squaring of a base with One on
// its diagonal — because the vote is exact only then; a product that
// ends the loop anyway runs bare, and so does every product of a loop
// over an operand without One on its diagonal, which then runs to its
// bound. How many products the vote saves depends on the input: the
// answer is stable once its hop horizon covers the hop-diameter, so
// graph.Path saves none and a dense random graph most of them.

// Power computes the reflexive semiring power A^e by square-and-multiply,
// one engine product per step. result stays nil until the first set
// exponent bit so an Identity ⊗ A product is never paid; a power-of-two
// exponent therefore costs at most log2(e) squarings and no multiply
// step.
//
// A squaring that changes nothing ends the squarings: once
// base ⊗ base = base every higher power of base is base, and
// result ⊗ P ⊗ P = result ⊗ P, so whatever exponent is left collapses to
// a single multiply step (or to base itself while result is nil). Each
// squaring with another one still to follow votes when base has One on
// its diagonal, its accumulator starting at base: base ⊆ base ⊗ base
// then, so the product is unchanged. Multiply steps and the last
// squaring end the loop anyway and run bare.
//
// Every squaring after the first is semi-naive when the squaring before
// it squared a matrix with One on its diagonal — every reflexive
// adjacency, and so every power of one. Let P be that operand,
// X = P ⊗ P the base now, and Δ the entries where X ≠ P. P's One
// diagonal gives X ⊇ P, and ⊕ is idempotent, so X = P ⊕ Δ. Then
// X ⊗ P = P ⊗ X = X ⊕ P ⊗ Δ by associativity, and P ⊗ Δ is absorbed by
// X ⊗ Δ because X ⊇ P, so
//
//	X ⊗ X = X ⊕ X ⊗ Δ.
//
// The same constructor builds it (newPass) as every other product, and
// each node's accumulator starts from X[v]. When A is value-symmetric,
// as the adjacency of an undirected graph is, so is every power of it,
// and the product X ⊗ Δ runs by the 3D cube partition (cubeNode) rather
// than row-pull: with q = ⌊n^{1/3}⌋ blocks, each node sends blocks of
// its rows of X and of Δ to the cube nodes (a, b, c), a ≤ b, that
// multiply them, and each returns its partial rows and columns to their
// owners. A dense row-pull squaring moves about n³ entries; the cube
// moves about q·n² each way. A chain over any other A squares
// semi-naively by row-pull; multiply steps, the first squaring and a
// base without One on its diagonal stream whole rows by row-pull.
//
// Between products Power holds base, prev and result as dense slabs:
// the accumulator slabs the products that made them left behind
// (dense(A) before the first). A cube squaring reads base and prev and
// writes into a third, the slab of the operand from two squarings back,
// so a chain of squarings allocates no n x n matrix after its first
// two. A CSR is built only where something reads one: the base of a
// row-pull squaring, the left operand of a multiply step, Result and
// WritePower; Dense hands the final slab over as it is.
//
// The chain's cube nodes keep their blocks of the operand they squared
// (cubePlan.held), so every cube squaring after the first in a row
// ships and decodes Δ where it would ship X. A row-pull squaring makes
// them stale, and the chain drops them, with its plan, when it is done.
type Power struct {
	e int
	// base is what the next squaring squares; nil before the first
	// product, while rows holds A.
	base *Dense
	// rows is base as a CSR, once something has built it; nil from each
	// squaring until something needs it again.
	rows *Matrix
	// result is the power of A the exponent bits taken so far make; nil
	// before the first. It may be base's or prev's very slab, which no
	// product then takes as its accumulator.
	result *Dense
	// prev is the operand of the last squaring, so base = prev ⊗ prev,
	// kept only when it has One on its diagonal; nil before the first
	// squaring.
	prev *Dense
	// cube is the plan the chain's cube squarings share; nil when A is
	// not value-symmetric, and once the chain is done.
	cube *cubePlan
	// spare is a slab no operand holds any more, which the next product
	// takes as its accumulator; nil when there is none.
	spare        []int64
	pass         *Pass
	passIsSquare bool
	// phase 0: the current exponent bit's multiply step is pending;
	// phase 1: it is done and the squaring step is pending.
	phase int
}

// NewPower prepares A^e as a session kernel. Operand validation happens
// at the first product, surfacing through Session.Run.
func NewPower(a *Matrix, e int) *Power { return &Power{e: e, rows: a} }

// Name identifies the kernel.
func (p *Power) Name() string { return "matmul-power" }

// baseRows returns base as a CSR, building it if nothing has yet.
func (p *Power) baseRows() *Matrix {
	if p.rows == nil {
		p.rows = sparse(p.base)
	}
	return p.rows
}

// baseDense returns base as a dense slab, building it from the CSR
// before the first product, when it also decides whether the chain
// squares by the cube: whether that base (A, or the one a checkpoint
// restored) is value-symmetric.
func (p *Power) baseDense() *Dense {
	if p.base == nil {
		p.base = dense(p.rows)
		switch {
		case !valueSymmetric(p.base):
			p.cube = nil
		case p.cube == nil:
			p.cube = &cubePlan{}
		}
	}
	return p.base
}

// valueSymmetric reports whether the n x n Dense d equals its
// transpose.
func valueSymmetric(d *Dense) bool {
	for v := 0; v < d.N; v++ {
		row := d.Row(core.NodeID(v))
		for j, x := range row[:v] {
			if x != d.Vals[j*d.K+v] {
				return false
			}
		}
	}
	return true
}

// held says the cube nodes hold their blocks of prev: the last squaring
// ran by the cube, and the chain is not done.
func (p *Power) held() bool { return p.cube != nil && p.cube.held }

// harvest folds the completed in-flight pass (if any), its rows
// gathered by the session, back into the square-and-multiply state.
// Idempotent, so checkpointing can force it at a pass boundary before
// the next Next call would.
func (p *Power) harvest() {
	if p.pass == nil {
		return
	}
	if p.passIsSquare {
		// The operand squared becomes prev or, like the prev it replaces,
		// a spare slab.
		freed := p.prev
		p.prev = nil
		if denseOneDiagonal(p.base) {
			p.prev = p.base
		} else {
			freed = p.base
		}
		if freed != nil && freed != p.result {
			p.spare = freed.Vals
		}
		p.base, p.rows = p.pass.Dense(), nil
		if !p.pass.changed() {
			p.e = 1
		}
		if p.cube != nil {
			p.cube.held = p.pass.cb != nil
		}
	} else {
		// The old result may be base's or prev's slab: it is not spare.
		p.result = p.pass.Dense()
	}
	p.pass = nil
}

// Next harvests the pass returned by the previous call (if any) and
// returns the next product pass, or none once A^e is fully computed.
func (p *Power) Next(*graph.CSR) (clique.Pass, error) {
	p.harvest()
	for p.e > 0 {
		if p.phase == 0 {
			p.phase = 1
			if p.e&1 == 1 {
				if p.result == nil {
					p.result = p.baseDense()
				} else {
					return p.product(false)
				}
			}
		}
		if p.e > 1 {
			p.phase = 0
			p.e >>= 1
			return p.product(true)
		}
		p.e = 0
	}
	p.cube = nil // the chain is done
	return clique.Pass{}, nil
}

// product starts the engine pass left ⊗ base: the squaring step, left
// being base itself (p.e already holds the exponent left after it),
// semi-naive once prev is known — by the cube when the chain's A is
// value-symmetric — or the multiply step, left being result. A cube
// squaring reads no CSR of base; it times its own ballots.
func (p *Power) product(square bool) (clique.Pass, error) {
	b := p.baseDense()
	var left *Matrix
	var prev *Dense
	var cp *cubePlan
	switch {
	case !square:
		left = sparse(p.result)
	case p.prev != nil && p.cube != nil:
		prev, cp = p.prev, p.cube
	default:
		left, prev = p.baseRows(), p.prev
	}
	// A squaring with another to follow votes, where its accumulator may
	// start at base: semi-naive, or over a base with One on its diagonal.
	vote := square && p.e > 1 && (prev != nil || denseOneDiagonal(b))
	pass, err := newPass(left, b, prev, vote, p.spare, cp)
	if err != nil {
		return clique.Pass{}, err
	}
	p.pass, p.passIsSquare, p.spare = pass, square, nil
	return pass.session(), nil
}

// session is the pass as a clique session runs it: its nodes, its
// round bound, and its accumulator slab as the rows to all-gather.
func (p *Pass) session() clique.Pass {
	return clique.Pass{Nodes: p.nodes, MaxRounds: p.MaxRoundsHint(), Rows: p.flat, RowLen: p.cols}
}

// Result returns A^e (*Matrix), nil before completion. e = 0 yields the
// identity in the base matrix's semiring (every vertex related only to
// itself, with value One).
func (p *Power) Result() any {
	if p.e > 0 {
		return nil
	}
	if p.result == nil {
		a := p.baseRows()
		return Identity(a.N, a.Sr)
	}
	return sparse(p.result)
}

// Dense returns A^e as an n x n Dense, nil before completion: the slab
// the chain's last product left, with no CSR built.
func (p *Power) Dense() *Dense {
	if p.e > 0 {
		return nil
	}
	if p.result == nil {
		return dense(p.Result().(*Matrix))
	}
	return p.result
}

// Relaxation iterates B ← S ⊗ B over a fixed matrix S (B n x k dense),
// from the indicator columns of k sources, until `products` have run or
// one changes nothing — B = S ⊗ B is a fixpoint, so every later product
// would return the same columns. It is the loop behind the hopset
// construction (hub columns relaxed β times over the rounded adjacency)
// and behind stage 2 of every two-stage pipeline in internal/algo
// (source columns relaxed over S).
//
// The first product is local: S ⊗ (indicator columns) is
// B[v][j] = S[v][sources[j]] — Mul(x, One) = x in every semiring — which
// node v reads off its own row of S. It costs no round, no word and no
// engine pass; NewRelaxation runs it. Every later product is one dense
// engine pass, and over a reflexive S each but the last allowed votes.
// A local product that changes nothing (every source isolated) is
// confirmed by the next, which then streams nothing. Over any other S
// no product votes, and the Relaxation runs all of them.
//
// When every row of S carries One on its diagonal — the rounded
// adjacency, an augmented S and A^h of a reflexive adjacency all do —
// each engine product streams only the entries of B that the product
// before changed, and each node's accumulator starts from its own row
// of B (newPass says why that is exact); the first one streams only
// what the local product added to the indicator. The traffic then
// follows what is still unsettled rather than the width of the columns.
// Any other S streams whole rows every product.
//
// Over a reflexive S that prices as 2D (relaxPlan, decided once, at the
// first engine product, from S alone), an engine product B ⊕ S ⊗ Δ runs
// by a 2D block partition instead of row-pull (cubeNode, cubePlan). Its
// plan records whether the cube nodes hold S's blocks: the first 2D
// product ships them, and every later one, in this Relaxation or in one
// that starts from its plan (Hold), ships only Δ and partial rows.
//
// Between products Relaxation holds B, and prev over a reflexive S, as
// the accumulator slabs of the products that made them, and hands the
// next product the slab of the B from two products back (from the last
// product, over any other S) as its accumulator.
type Relaxation struct {
	s    *Matrix
	b    *Dense
	pass *Pass
	// prev is the B the last product started from, kept only when S is
	// reflexive; nil while no product has run.
	prev      *Dense
	reflexive bool
	// cube is the plan of the 2D products, nil when S prices as
	// row-pull; priced says the choice is made.
	cube   *cubePlan
	priced bool
	// spare is a slab no operand holds any more, which the next product
	// takes as its accumulator; nil when there is none.
	spare []int64
	// remaining bounds the products still to run; a product that changes
	// nothing zeroes it.
	remaining int
}

// NewRelaxation prepares at most `products` relaxation products of s
// from the indicator columns of sources, each in [0, n), as a session
// kernel, and runs the first, local one. Validation of S happens at the
// first engine product, surfacing through Session.Run.
func NewRelaxation(s *Matrix, sources []core.NodeID, products int) *Relaxation {
	r := &Relaxation{s: s, remaining: products, reflexive: oneDiagonal(s)}
	r.b = Indicator(s.N, sources, s.Sr)
	if r.remaining <= 0 {
		return r
	}
	b := NewDense(s.N, len(sources), s.Sr)
	for v := 0; v < s.N; v++ {
		cols, vals := s.Row(core.NodeID(v))
		row := b.Row(core.NodeID(v))
		for j, src := range sources {
			if i, ok := slices.BinarySearch(cols, src); ok {
				row[j] = vals[i]
			}
		}
	}
	if r.reflexive {
		r.prev = r.b
	}
	r.b = b
	r.remaining--
	return r
}

// oneDiagonal reports whether every row of s carries One on its
// diagonal.
func oneDiagonal(s *Matrix) bool {
	for v := 0; v < s.N; v++ {
		if s.At(core.NodeID(v), core.NodeID(v)) != s.Sr.One {
			return false
		}
	}
	return true
}

// denseOneDiagonal is oneDiagonal for an n x n Dense.
func denseOneDiagonal(d *Dense) bool {
	for v := 0; v < d.N; v++ {
		if d.At(core.NodeID(v), v) != d.Sr.One {
			return false
		}
	}
	return true
}

// Indicator returns the n x k columns a relaxation starts from, one per
// source: One at the source (0 over (min,+), InfWidth over (max,min)),
// Zero elsewhere.
func Indicator(n int, sources []core.NodeID, sr core.Semiring) *Dense {
	b := NewDense(n, len(sources), sr)
	for j, src := range sources {
		b.Row(src)[j] = sr.One
	}
	return b
}

// Name identifies the kernel.
func (r *Relaxation) Name() string { return "matmul-relax" }

// harvest folds the completed in-flight product (if any), its rows
// gathered by the session, into the columns. Idempotent, so
// checkpointing can force it at a pass boundary before the next Next
// call would.
func (r *Relaxation) harvest() {
	if r.pass == nil {
		return
	}
	freed := r.b
	if r.reflexive {
		freed, r.prev = r.prev, r.b
	}
	if freed != nil {
		r.spare = freed.Vals
	}
	r.b = r.pass.Dense()
	if r.pass.cb != nil {
		r.cube.held = true // S never changes: its blocks stay held
	}
	r.remaining--
	if !r.pass.changed() {
		r.remaining = 0
	}
	r.pass = nil
}

// Next harvests the pass returned by the previous call (if any) and
// returns the next relaxation pass, or none once the columns are final.
func (r *Relaxation) Next(*graph.CSR) (clique.Pass, error) {
	r.harvest()
	if r.remaining <= 0 {
		return clique.Pass{}, nil
	}
	if !r.priced && r.reflexive {
		r.cube = relaxPlan(r.s)
	}
	r.priced = true
	var cp *cubePlan
	if r.prev != nil {
		cp = r.cube
	}
	pass, err := newPass(r.s, r.b, r.prev, r.remaining > 1 && r.reflexive, r.spare, cp)
	if err != nil {
		return clique.Pass{}, err
	}
	r.spare = nil
	r.pass = pass
	return pass.session(), nil
}

// Result returns the final columns (*Dense), nil before completion.
func (r *Relaxation) Result() any {
	if r.remaining > 0 {
		return nil
	}
	return r.b
}

// Over returns S, the matrix the columns are relaxed over.
func (r *Relaxation) Over() *Matrix { return r.s }

// Plan is a Relaxation's 2D schedule over its S — the choice, the link
// table, the buffers and whether the cube nodes hold S's blocks — kept
// for a later Relaxation over the same S. The blocks are the state of
// one session's nodes: hand it only to Relaxations that run, one at a
// time, on the session that ran the one it came from.
type Plan struct{ cp *cubePlan }

// Plan returns the Relaxation's 2D plan, nil when its S prices as
// row-pull or no engine product has priced it yet.
func (r *Relaxation) Plan() *Plan {
	if r.cube == nil {
		return nil
	}
	return &Plan{r.cube}
}

// Hold makes the Relaxation, before its first engine product, run from
// p, a plan an earlier Relaxation over the same S left: its products
// then skip the choice and, once S's blocks are held, ship only Δ and
// partial rows. A nil p, or one over another S, changes nothing.
func (r *Relaxation) Hold(p *Plan) {
	if p != nil && p.cp.s == r.s && r.reflexive && !r.priced {
		r.cube, r.priced = p.cp, true
	}
}

// init registers the demonstration matmul kernel: squaring the
// reflexive (min,+) adjacency matrix of the session graph — one
// distance-product step, the atom every shortest-path pipeline here is
// built from. Unweighted graphs are treated as unit-weighted.
func init() {
	clique.Register("matmul-square", func(g *graph.CSR) (clique.Kernel, error) {
		a, err := FromGraph(g.WithUnitWeights(), core.MinPlus(), true)
		if err != nil {
			return nil, err
		}
		return NewPower(a, 2), nil
	})
}
