package matmul

import (
	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// The two product loops every multiplying kernel drives. Each is a
// clique session kernel that carries its operands (so it runs on
// graph-free sessions, clique.NewSize, and ignores the session graph),
// runs one engine pass per product, and stops at the first product that
// changes nothing: each product that another one may still follow takes
// that verdict in-engine (Pass.vote: at most 2 rounds and 2(n-1) words,
// none when it confirms the fixpoint); a product that ends the loop
// anyway runs bare. How many products that saves depends on the input:
// the answer is stable once its hop horizon covers the hop-diameter, so
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
// squaring with another one still to follow votes; multiply steps and
// the last squaring end the loop anyway and run bare.
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
// Each node v starts from X[v] and asks every k with X[v][k] set for
// Δ[k] alone, multiplying it by its own X[v][k]; no node ever needs
// another's whole row. So a squaring pays, in words and in rounds, for
// what changed in the one before rather than for the width of X, and
// the squaring that confirms the fixpoint costs little more than its
// requests. Multiply steps, the first squaring and a base without One
// on its diagonal stream whole rows.
type Power struct {
	e            int
	base, result *Matrix
	// prev is the operand of the last squaring, so base = prev ⊗ prev,
	// kept only when it has One on its diagonal; nil before the first
	// squaring.
	prev         *Matrix
	pass         *Pass
	passIsSquare bool
	// phase 0: the current exponent bit's multiply step is pending;
	// phase 1: it is done and the squaring step is pending.
	phase int
}

// NewPower prepares A^e as a session kernel. Operand validation happens
// at the first product, surfacing through Session.Run.
func NewPower(a *Matrix, e int) *Power { return &Power{e: e, base: a} }

// Name identifies the kernel.
func (p *Power) Name() string { return "matmul-power" }

// harvest folds the completed in-flight pass (if any), its rows
// gathered by the session, back into the square-and-multiply state.
// Idempotent, so checkpointing can force it at a pass boundary before
// the next Next call would.
func (p *Power) harvest() {
	if p.pass == nil {
		return
	}
	m := p.pass.Sparse()
	if p.passIsSquare {
		p.prev = nil
		if oneDiagonal(p.base) {
			p.prev = p.base
		}
		p.base = m
		if !p.pass.changed() {
			p.e = 1
		}
	} else {
		p.result = m
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
					p.result = p.base
				} else {
					return p.product(p.result, false)
				}
			}
		}
		if p.e > 1 {
			p.phase = 0
			p.e >>= 1
			return p.product(p.base, true)
		}
		p.e = 0
	}
	return clique.Pass{}, nil
}

// product starts the engine pass left ⊗ base: the squaring step when
// left is base itself (p.e already holds the exponent left after it),
// semi-naive once prev is known, the multiply step into result
// otherwise.
func (p *Power) product(left *Matrix, square bool) (clique.Pass, error) {
	var pass *Pass
	var err error
	if square && p.prev != nil {
		pass, err = newSquarePass(p.base, p.prev)
	} else {
		pass, err = NewPass(left, p.base, false)
	}
	if err != nil {
		return clique.Pass{}, err
	}
	p.pass, p.passIsSquare = pass, square
	if square && p.e > 1 {
		pass.vote(askedRows(left))
	}
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
		return Identity(p.base.N, p.base.Sr)
	}
	return p.result
}

// Relaxation iterates B ← S ⊗ B over a fixed matrix S (B n x k dense),
// one dense engine pass per product, until `products` have run or one
// changes nothing — B = S ⊗ B is a fixpoint, so every later product
// would return the same columns. Each product but the last allowed
// votes. It is the loop behind the hopset construction (hub columns
// relaxed β times over the rounded adjacency) and behind stage 2 of
// every two-stage pipeline in internal/algo (source columns relaxed
// over S).
//
// When every row of S carries One on its diagonal — the rounded
// adjacency, an augmented S and A^h of a reflexive adjacency all do —
// each product after the first streams only the entries of B that the
// product before changed, and each node's accumulator starts from its
// own row of B (newDensePass says why that is exact). The traffic then
// follows what is still unsettled rather than the width of the columns.
// Any other S streams whole rows every product.
//
// Whatever S, only the first product asks: S fixes who asks each node
// for its row, so each responder keeps the requesters it recorded then,
// and every later product streams from round 0 with no request words
// (see mulNode). That saves one round and one word per off-diagonal
// nonzero of S — nnz(S) - n over a reflexive S — per later product.
type Relaxation struct {
	s    *Matrix
	b    *Dense
	pass *Pass
	// prev is the B the last product started from, kept only when S is
	// reflexive; nil before the first product.
	prev      *Dense
	reflexive bool
	// reqs[k] is who asks node k for its row, as node k recorded it in the
	// first product (nil for the nodes this rank does not execute); nil
	// before the first product has run.
	reqs [][]core.NodeID
	// asked is askedRows(s), the rows every product's vote sizes F from.
	asked []bool
	// remaining bounds the products still to run; a product that changes
	// nothing zeroes it.
	remaining int
}

// NewRelaxation prepares at most `products` relaxation products of s
// against b as a session kernel. Operand validation happens at the
// first product, surfacing through Session.Run.
func NewRelaxation(s *Matrix, b *Dense, products int) *Relaxation {
	return &Relaxation{s: s, b: b, remaining: products, reflexive: oneDiagonal(s)}
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
	if r.reflexive {
		r.prev = r.b
	}
	if r.reqs == nil {
		r.reqs = make([][]core.NodeID, len(r.pass.state))
		for v := range r.reqs {
			r.reqs[v] = r.pass.state[v].reqs
		}
	}
	r.b = r.pass.Dense()
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
	pass, err := newDensePass(r.s, r.b, r.prev, false)
	if err != nil {
		return clique.Pass{}, err
	}
	if r.reqs != nil {
		for v := range pass.state {
			pass.state[v].reqs, pass.state[v].heard = r.reqs[v], true
		}
	}
	if r.remaining > 1 {
		if r.asked == nil {
			r.asked = askedRows(r.s)
		}
		pass.vote(r.asked)
	}
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
