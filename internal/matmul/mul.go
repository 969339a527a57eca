package matmul

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// The wire format packs several matrix entries into each Theta(log n)-bit
// message word. An entry's value travels as an offset-coded field:
//
//	0            empty slot (nothing to accumulate)
//	1            the semiring's One
//	v - min + 2  any other non-Zero value v
//
// where min (and max, which fixes the field width) range over the
// non-One values the product sends of its B operand; Zero is never sent.
// Reserving a code for One keeps an extreme identity (MaxMin's
// One = 2^40 on every reflexive diagonal) from widening the field, and
// makes the boolean semiring the 1-bit-field case instead of a special
// path. Bit 63 of a word selects one of two row encodings, so receivers
// decode each word statelessly (low bits first):
//
//	sparse     0 | ... | col_1 field_1 | col_0 field_0
//	positional 1 | ... field_1 field_0 | start
//
// A sparse word carries 63/(idxBits+width) (col, field) entries; a
// positional word carries (63-idxBits)/width fields for the consecutive
// columns start, start+1, ... Unused high slots are 0. wireFormat
// holds the split for one product; it is derived from the values the
// product sends alone, so every rank and every crash-resume rebuilds
// identical words.
type wireFormat struct {
	idxBits, width uint
	idxMask, fMask uint64
	base           int64 // min - 2: a field f >= 2 decodes to base + f
	one            int64
	sparsePer      int // entries per sparse word
	posPer         int // columns per positional word
	// loop is the decode loop accumulate runs for this product: the
	// semiring's kind, or KindGeneric where no specialised loop applies.
	loop core.SemiringKind
}

// posFlag marks a positionally encoded word.
const posFlag = uint64(1) << 63

// valueRange is the span of the values a product sends that need a
// field code of their own: every sent value but One.
type valueRange struct {
	lo, hi int64
	ranged bool
}

// add widens the range to cover v.
func (rg *valueRange) add(v int64) {
	if !rg.ranged {
		rg.lo, rg.hi, rg.ranged = v, v, true
		return
	}
	rg.lo, rg.hi = min(rg.lo, v), max(rg.hi, v)
}

// format derives the wire format for the values in rg. It rejects
// negative values and value ranges whose field does not fit beside the
// column index, before any round runs.
func (rg valueRange) format(cols int, sr core.Semiring) (*wireFormat, error) {
	if rg.lo < 0 {
		return nil, fmt.Errorf("matmul: B value %d is negative; the wire format carries only non-negative values", rg.lo)
	}
	idxBits := uint(core.Log2Ceil(cols))
	width := uint(1) // code 1 (One) alone
	if rg.ranged {
		width = uint(bits.Len64(uint64(rg.hi-rg.lo) + 2))
	}
	if idxBits+width > 63 {
		return nil, fmt.Errorf(
			"matmul: B values span [%d, %d], which needs a %d-bit field; a wire word has %d bits beside its %d column-index bits",
			rg.lo, rg.hi, width, 63-idxBits, idxBits)
	}
	wf := &wireFormat{
		idxBits:   idxBits,
		width:     width,
		idxMask:   1<<idxBits - 1,
		fMask:     1<<width - 1,
		base:      rg.lo - 2,
		one:       sr.One,
		sparsePer: int(63 / (idxBits + width)),
		posPer:    int((63 - idxBits) / width),
		loop:      sr.Kind(),
	}
	if wf.loop == core.KindBoolOrAnd && rg.ranged {
		// The boolean loop is the 1-bit-field case, every field One.
		wf.loop = core.KindGeneric
	}
	return wf, nil
}

// packRow appends one B-row — its non-Zero entries as parallel,
// column-sorted slices — to dst in whichever encoding needs fewer
// words (sparse on a tie).
func (wf *wireFormat) packRow(dst []uint64, cols []core.NodeID, vals []int64) []uint64 {
	sparseWords := (len(cols) + wf.sparsePer - 1) / wf.sparsePer
	posWords := 0
	for i := 0; i < len(cols) && posWords < sparseWords; posWords++ {
		end := int(cols[i]) + wf.posPer
		for i < len(cols) && int(cols[i]) < end {
			i++
		}
	}
	if posWords < sparseWords {
		return wf.packPositional(dst, cols, vals)
	}
	return wf.packSparse(dst, cols, vals)
}

// packSparse appends the row as (col, field) entries, sparsePer to a
// word.
func (wf *wireFormat) packSparse(dst []uint64, cols []core.NodeID, vals []int64) []uint64 {
	entBits := wf.idxBits + wf.width
	for i := 0; i < len(cols); {
		var w uint64
		for s := uint(0); s < uint(wf.sparsePer) && i < len(cols); s, i = s+1, i+1 {
			w |= (uint64(cols[i])<<wf.width | wf.field(vals[i])) << (s * entBits)
		}
		dst = append(dst, w)
	}
	return dst
}

// packPositional appends the row as words that each start at the next
// unsent entry's column and cover the posPer columns from there, so
// runs of Zero columns wider than a word cost nothing.
func (wf *wireFormat) packPositional(dst []uint64, cols []core.NodeID, vals []int64) []uint64 {
	for i := 0; i < len(cols); {
		start := int(cols[i])
		w := posFlag | uint64(start)
		for ; i < len(cols) && int(cols[i]) < start+wf.posPer; i++ {
			w |= wf.field(vals[i]) << (wf.idxBits + uint(int(cols[i])-start)*wf.width)
		}
		dst = append(dst, w)
	}
	return dst
}

// field offset-codes one non-Zero value.
func (wf *wireFormat) field(v int64) uint64 {
	if v == wf.one {
		return 1
	}
	return uint64(v - wf.base)
}

// term returns Mul(aik, v) for the value v that the non-empty field f
// carries. The code for One needs no Mul: Mul(a, One) = a.
func (wf *wireFormat) term(sr core.Semiring, aik int64, f uint64) int64 {
	if f == 1 {
		return aik
	}
	return sr.Mul(aik, wf.base+int64(f))
}

// mulNode executes one node's share of a distributed product C = A ⊗ B.
// Node v owns row v of A, row v of B (pre-packed into wire words), and
// accumulates row v of C. The protocol is globally phased:
//
//	round 0:    v sends one request word to every k in supp(A[v]),
//	            k != v, and folds in the local k = v contribution.
//	round 1:    inboxes hold only requests; v records its requesters
//	            and sends each the first LinkMsgCap() words of its
//	            packed B-row.
//	rounds >=2: inboxes hold only data words; v accumulates
//	            C[v][j] = Add(C[v][j], Mul(A[v][k], B[k][j])) for each
//	            word received from k, and sends every requester the
//	            next LinkMsgCap() words.
//
// Every requester asks in round 0 and is served the same words at the
// same pace, so a responder's whole stream state is one offset into its
// packed row. The engine's quiescence detection ends the run once every
// row is out: the round after the last data word is delivered, no node
// sends anything.
//
// A later product of a Relaxation asks nothing: S, and so who asks whom,
// is fixed for the whole loop, and every node kept the requesters it
// recorded in the first product (heard). Round 0 is then the local fold
// plus the first LinkMsgCap() words of the packed row to each recorded
// requester, and data arrives from round 1:
//
//	round 0:    fold in k = v; send each requester the first words.
//	rounds >=1: accumulate as above; send every requester the next words.
type mulNode struct {
	sr     core.Semiring
	wf     *wireFormat
	aCols  []core.NodeID
	aVals  []int64
	packed []uint64      // this node's row of B, in wire format
	acc    []int64       // this node's row of C, dense
	reqs   []core.NodeID // who asked for this row, in request order
	off    int           // words of packed already sent to each of reqs
	cur    int           // index into aCols of the last source looked up
	unpace bool
	heard  bool   // reqs came from an earlier product: no request round
	vote   *voter // non-nil on a pass asked to vote (Pass.vote)
}

// lookupA returns A[v][src] for a data word from src, which exists
// whenever the word was solicited (we only requested rows we can use).
// Inboxes and aCols are both src-ascending, so the search resumes from
// the previous hit and walks forward; a src behind the cursor (the
// first word of the next round, or any other delivery order) falls
// back to the binary search.
func (nd *mulNode) lookupA(src core.NodeID) (int64, bool) {
	i := nd.cur
	if i == len(nd.aCols) || nd.aCols[i] > src {
		i, _ = slices.BinarySearch(nd.aCols, src)
	}
	for i < len(nd.aCols) && nd.aCols[i] < src {
		i++
	}
	nd.cur = i
	if i < len(nd.aCols) && nd.aCols[i] == src {
		return nd.aVals[i], true
	}
	return nd.sr.Zero, false
}

// accumulate folds one packed word of B[k] into this node's row of C:
// C[v][j] = Add(C[v][j], Mul(aik, B[k][j])) for every entry the word
// carries, in the loop the wire format chose for the pass. A column
// decoded outside the accumulator panics on the slice bound (surfacing
// as *engine.HandlerPanicError) rather than writing out of row, in
// every loop.
func (nd *mulNode) accumulate(aik int64, w uint64) {
	switch nd.wf.loop {
	case core.KindMinPlus:
		if aik < core.InfWeight { // the inline sum assumes it cannot overflow
			nd.accumulateMinPlus(aik, w)
			return
		}
	case core.KindMaxMin:
		nd.accumulateMaxMin(aik, w)
		return
	case core.KindBoolOrAnd:
		nd.accumulateBool(aik, w)
		return
	}
	nd.accumulateGeneric(aik, w)
}

// accumulateGeneric is the decode loop for any semiring, through its
// Add and Mul, and the reference the specialised loops are tested
// against.
func (nd *mulNode) accumulateGeneric(aik int64, w uint64) {
	wf, sr, acc := nd.wf, nd.sr, nd.acc
	if w&posFlag != 0 {
		w &^= posFlag
		j := int(w & wf.idxMask)
		for w >>= wf.idxBits; w != 0; w, j = w>>wf.width, j+1 {
			if f := w & wf.fMask; f != 0 {
				acc[j] = sr.Add(acc[j], wf.term(sr, aik, f))
			}
		}
		return
	}
	for ; w != 0; w >>= wf.idxBits + wf.width {
		if f := w & wf.fMask; f != 0 {
			j := int(w >> wf.width & wf.idxMask)
			acc[j] = sr.Add(acc[j], wf.term(sr, aik, f))
		}
	}
}

// accumulateMinPlus is accumulate over (min,+) for aik < InfWeight:
// min and the saturating sum written inline, with aik + base hoisted
// out of the loop. A field f carries v = base + f, and the product
// saturates when v or aik + v reaches InfWeight. (In the specialised
// loops the shift counts are masked with 63 — a no-op, idxBits + width
// <= 63 — so the compiler drops its out-of-range-shift test per field.)
func (nd *mulNode) accumulateMinPlus(aik int64, w uint64) {
	wf, acc := nd.wf, nd.acc
	width, fMask := wf.width&63, wf.fMask
	ab, fInf := aik+wf.base, core.InfWeight-wf.base
	term := func(f uint64) int64 {
		if f == 1 {
			return aik
		}
		if s := ab + int64(f); int64(f) < fInf && s < core.InfWeight {
			return s
		}
		return core.InfWeight
	}
	if w&posFlag != 0 {
		w &^= posFlag
		j := int(w & wf.idxMask)
		for w >>= wf.idxBits & 63; w != 0; w, j = w>>width, j+1 {
			if f := w & fMask; f != 0 {
				acc[j] = min(acc[j], term(f))
			}
		}
		return
	}
	entBits := (wf.idxBits + wf.width) & 63
	for ; w != 0; w >>= entBits {
		if f := w & fMask; f != 0 {
			j := int(w >> width & wf.idxMask)
			acc[j] = min(acc[j], term(f))
		}
	}
}

// accumulateMaxMin is accumulate over (max,min), written inline.
func (nd *mulNode) accumulateMaxMin(aik int64, w uint64) {
	wf, acc := nd.wf, nd.acc
	width, fMask := wf.width&63, wf.fMask
	term := func(f uint64) int64 {
		if f == 1 {
			return aik
		}
		return min(aik, wf.base+int64(f))
	}
	if w&posFlag != 0 {
		w &^= posFlag
		j := int(w & wf.idxMask)
		for w >>= wf.idxBits & 63; w != 0; w, j = w>>width, j+1 {
			if f := w & fMask; f != 0 {
				acc[j] = max(acc[j], term(f))
			}
		}
		return
	}
	entBits := (wf.idxBits + wf.width) & 63
	for ; w != 0; w >>= entBits {
		if f := w & fMask; f != 0 {
			j := int(w >> width & wf.idxMask)
			acc[j] = max(acc[j], term(f))
		}
	}
}

// accumulateBool is accumulate over (or,and) in the 1-bit-field format,
// where every non-empty field is One: a positional word is a bitmap of
// the columns to set.
func (nd *mulNode) accumulateBool(aik int64, w uint64) {
	wf, acc := nd.wf, nd.acc
	if w&posFlag != 0 {
		w &^= posFlag
		j := int(w & wf.idxMask)
		for w >>= wf.idxBits & 63; w != 0; w &= w - 1 {
			acc[j+bits.TrailingZeros64(w)] |= aik
		}
		return
	}
	entBits, idxMask := (wf.idxBits+1)&63, wf.idxMask
	for ; w != 0; w >>= entBits {
		if w&1 != 0 {
			acc[w>>1&idxMask] |= aik
		}
	}
}

// stream sends every requester the next LinkMsgCap() words of this
// node's packed row (all of it when unpaced) and advances the shared
// offset. The router's per-link accounting stays the enforcement.
func (nd *mulNode) stream(ctx *engine.Ctx) error {
	end := len(nd.packed)
	if !nd.unpace {
		end = min(end, nd.off+ctx.LinkMsgCap())
	}
	if nd.off == end {
		return nil
	}
	for _, dst := range nd.reqs {
		for _, w := range nd.packed[nd.off:end] {
			if err := ctx.Send(dst, w); err != nil {
				return err
			}
		}
	}
	nd.off = end
	return nil
}

// Round runs the node's share of the product, and of the vote on a pass
// asked for one.
func (nd *mulNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	if nd.vote != nil {
		return nd.vote.round(nd, ctx, r, inbox)
	}
	return nd.product(ctx, r, inbox)
}

// product is one round of the request/stream/accumulate protocol, or of
// its request-free form once the node has heard its requesters.
func (nd *mulNode) product(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	switch {
	case r == 0:
		if i, ok := slices.BinarySearch(nd.aCols, ctx.ID()); ok {
			for _, w := range nd.packed {
				nd.accumulate(nd.aVals[i], w)
			}
		}
		if nd.heard {
			break
		}
		for _, k := range nd.aCols {
			if k == ctx.ID() {
				continue
			}
			if err := ctx.Send(k, 0); err != nil {
				return err
			}
		}
		return nil
	case r == 1 && !nd.heard:
		nd.reqs = make([]core.NodeID, len(inbox))
		for i, m := range inbox {
			nd.reqs[i] = m.Src
		}
	default:
		for _, m := range inbox {
			aik, ok := nd.lookupA(m.Src)
			if !ok {
				return fmt.Errorf("matmul: node %d got unsolicited data from %d", ctx.ID(), m.Src)
			}
			nd.accumulate(aik, m.Payload)
		}
	}
	return nd.stream(ctx)
}

// voter is one node's part in the vote a pass takes on whether its
// product equals its B operand — the question every product loop
// x <- S ⊗ x asks to know it has reached its fixpoint (see Pass.vote).
// The vote is paid for in rounds and words like the product itself:
//
//	round F:   the round the bare pass falls silent in, so every row of
//	           C is final. A node whose row of C differs from its row of
//	           B sends one word to node 0; node 0, if its own row
//	           differs, sends one word to every other node instead.
//	round F+1: node 0, if it heard a ballot and has not spoken yet,
//	           sends one word to every other node.
//	by F+2:    every node that heard node 0 knows the product changed.
//
// Silence is the other verdict: when no row differs nobody sends, the
// pass ends in round F exactly as the bare pass does, and no node's
// changed is set. A voting pass therefore costs at most 2 rounds and
// 2(n-1) words over the bare pass, and one that confirms a fixpoint
// costs nothing.
//
// F follows from the widest packed row any node asks for: its owner
// streams LinkMsgCap() words a round from round 1 on (from round 0 when
// the node heard its requesters in an earlier product), and the last of
// them is folded in one round after it is sent, so F = ceil(w / cap),
// plus one for the request round. Like the wire format's value range,
// that width is a global of the operands every node is taken to know
// before round 0 (docs/paper-map.md lists these).
type voter struct {
	widest  int        // words in the widest requested row; -1 if no node requests any
	final   core.Round // F, fixed in round 0 from widest and the link cap
	bRow    []int64    // this node's row of B
	ran     bool       // this process executes the node
	changed bool       // this node knows the product differs from B
}

// round runs round r of the product and, from round F on, of the vote.
func (vt *voter) round(nd *mulNode, ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	if r == 0 {
		vt.ran = true
		if vt.widest >= 0 {
			per := ctx.LinkMsgCap()
			if nd.unpace {
				per = max(per, vt.widest)
			}
			vt.final = core.Round((vt.widest + per - 1) / per)
			if !nd.heard {
				vt.final++
			}
		}
	}
	if r <= vt.final {
		if err := nd.product(ctx, r, inbox); err != nil {
			return err
		}
		if r < vt.final || slices.Equal(nd.acc, vt.bRow) {
			return nil
		}
		vt.changed = true
		if ctx.ID() != 0 {
			return ctx.Send(0, 1)
		}
		return announce(ctx)
	}
	// Past F only the vote's own words flow: ballots into node 0, then
	// its verdict out.
	if len(inbox) == 0 || vt.changed {
		return nil
	}
	vt.changed = true
	if ctx.ID() != 0 {
		return nil
	}
	return announce(ctx)
}

// announce is node 0 telling every other node the product changed.
func announce(ctx *engine.Ctx) error {
	for v := 1; v < ctx.NumNodes(); v++ {
		if err := ctx.Send(core.NodeID(v), 1); err != nil {
			return err
		}
	}
	return nil
}

// Pass is one validated, packed distributed product C = A ⊗ B prepared
// as a single engine pass: n mulNodes, node v holding row v of both
// operands and accumulating row v of C into its accumulator slab.
// Power and Relaxation hand a Pass to a clique session — its nodes, its
// MaxRoundsHint and the slab as the rows to gather — and harvest the
// result with Sparse or Dense after the pass quiesces, chaining one Pass
// per product on one warm session.
type Pass struct {
	n, cols int
	sr      core.Semiring
	maxRow  int
	nodes   []engine.Node
	state   []mulNode
	accs    [][]int64
	flat    []int64
	b       *Dense // the B operand, kept for vote
	voters  []voter
}

// Gather does nothing and returns nil. A pass run on a bare engine
// holds every row already; a pass run by a clique session (through
// Power or Relaxation) has its accumulator slab all-gathered by the
// session, which receives it as the clique.Pass Rows.
func (p *Pass) Gather() error { return nil }

// NewPass validates and packs the sparse product A ⊗ B. unpaced selects
// a budget-violating mode in which each responder pushes its entire row
// to every requester within a single round, so any row wider than the
// per-link cap fails the pass with a *engine.BandwidthError. It exists
// to show why the paced schedule is necessary
// (TestUnpacedProductReturnsBandwidthError); every other caller passes
// false.
func NewPass(a, b *Matrix, unpaced bool) (*Pass, error) {
	return newPass(a, dense(b), nil, unpaced)
}

// NewDensePass validates and packs the sparse-dense product A ⊗ B with
// B (and C) n x k dense. Zero entries of B are not transmitted.
func NewDensePass(a *Matrix, b *Dense, unpaced bool) (*Pass, error) {
	return newPass(a, b, nil, unpaced)
}

// newPass builds every distributed product A ⊗ B: n mulNodes, node v
// holding row v of A, its packed row of B and a K-wide accumulator
// over one flat result slab. It packs B's non-Zero entries, in the wire
// format of exactly the values it packs.
//
// With prev set, it packs only Δ, the entries of B that differ from
// prev, and starts each node's accumulator from its own row of B
// instead of Zero: the pass computes B ⊕ A ⊗ Δ. That is A ⊗ B in both
// loops that set prev:
//
//   - a Relaxation's later product over a reflexive A, prev the B the
//     product before started from. A's One diagonal and an idempotent
//     Add make B = A ⊗ prev ⊇ prev, so B = prev ⊕ Δ and
//     A ⊗ B = A ⊗ prev ⊕ A ⊗ Δ = B ⊕ A ⊗ Δ;
//   - a semi-naive squaring, A = B = X = P ⊗ P and prev = P (Power says
//     why).
func newPass(a *Matrix, b, prev *Dense, unpaced bool) (*Pass, error) {
	if err := checkPair(a.N, b.N, a.Sr, b.Sr); err != nil {
		return nil, err
	}
	// One sweep finds the entries to send, as indices into b.Vals, and
	// the range of their values.
	zero, one := b.Sr.Zero, b.Sr.One
	var rg valueRange
	var sent []int
	for i, v := range b.Vals {
		if v == zero || prev != nil && v == prev.Vals[i] {
			continue
		}
		sent = append(sent, i)
		if v != one {
			rg.add(v)
		}
	}
	wf, err := rg.format(b.K, b.Sr)
	if err != nil {
		return nil, err
	}
	// Pack each row's sent entries into one shared slab; ends[v] is where
	// row v's words end.
	n, k := a.N, b.K
	var slab []uint64
	ends := make([]int, n)
	cols := make([]core.NodeID, 0, k)
	vals := make([]int64, 0, k)
	next := 0
	for v := range ends {
		cols, vals = cols[:0], vals[:0]
		for ; next < len(sent) && sent[next] < (v+1)*k; next++ {
			cols = append(cols, core.NodeID(sent[next]-v*k))
			vals = append(vals, b.Vals[sent[next]])
		}
		slab = wf.packRow(slab, cols, vals)
		ends[v] = len(slab)
	}
	p := &Pass{n: n, cols: k, sr: a.Sr, b: b, accs: make([][]int64, n)}
	if prev != nil {
		p.flat = slices.Clone(b.Vals)
	} else {
		p.flat = NewDense(n, k, a.Sr).Vals
	}
	p.nodes = make([]engine.Node, n)
	p.state = make([]mulNode, n)
	lo := 0
	for v, hi := range ends {
		aCols, aVals := a.Row(core.NodeID(v))
		p.maxRow = max(p.maxRow, hi-lo)
		p.accs[v] = p.flat[v*k : (v+1)*k]
		p.state[v] = mulNode{
			sr:     a.Sr,
			wf:     wf,
			aCols:  aCols,
			aVals:  aVals,
			packed: slab[lo:hi:hi],
			acc:    p.accs[v],
			unpace: unpaced,
		}
		p.nodes[v] = &p.state[v]
		lo = hi
	}
	return p, nil
}

// Nodes returns the pass's node set for one engine run.
func (p *Pass) Nodes() []engine.Node { return p.nodes }

// vote asks the pass to also decide, in-engine, whether its product
// equals its B operand (see voter for the protocol and its cost); changed
// reports the verdict once the pass has quiesced. asked is askedRows of
// the pass's A. Call it before the pass runs. Power and Relaxation ask
// for a vote on every product but one that ends the loop anyway; a pass
// never asked runs exactly the bare product.
func (p *Pass) vote(asked []bool) {
	widest := -1
	for k, ok := range asked {
		if ok {
			widest = max(widest, len(p.state[k].packed))
		}
	}
	p.voters = make([]voter, p.n)
	for v := range p.voters {
		p.voters[v] = voter{widest: widest, bRow: p.b.Row(core.NodeID(v))}
		p.state[v].vote = &p.voters[v]
	}
}

// askedRows reports, for every row k of B, whether a product over a asks
// for it: whether some node v != k has a[v][k] != Zero.
func askedRows(a *Matrix) []bool {
	asked := make([]bool, a.N)
	for v := 0; v < a.N; v++ {
		cols, _ := a.Row(core.NodeID(v))
		for _, k := range cols {
			asked[k] = asked[k] || int(k) != v
		}
	}
	return asked
}

// requesters returns, for every row k of B, the nodes that ask for it in
// a product over a — every v != k with a[v][k] != Zero, ascending, the
// order their requests arrive in — which is exactly the list node k
// records in that product's round 1.
func requesters(a *Matrix) [][]core.NodeID {
	reqs := make([][]core.NodeID, a.N)
	for v := 0; v < a.N; v++ {
		cols, _ := a.Row(core.NodeID(v))
		for _, k := range cols {
			if int(k) != v {
				reqs[k] = append(reqs[k], core.NodeID(v))
			}
		}
	}
	return reqs
}

// changed reports whether the product differs from its B operand, as
// the nodes this process executed heard it in the pass's vote: every
// node but node 0 hears node 0's verdict and node 0 knows its own, so
// every rank of a multi-process clique reads the same answer off its
// own nodes. A pass not asked to vote reports true. Call it only after
// the pass has quiesced and its rows have been gathered.
func (p *Pass) changed() bool {
	if p.voters == nil {
		return true
	}
	ran := false
	for i := range p.voters {
		if p.voters[i].changed {
			return true
		}
		ran = ran || p.voters[i].ran
	}
	if ran {
		return false
	}
	// A rank of a clique with more ranks than nodes executes no node: it
	// is no party to the vote, and learns the outcome where it learns the
	// product, from the gathered rows.
	for v := range p.voters {
		if !slices.Equal(p.accs[v], p.voters[v].bRow) {
			return true
		}
	}
	return false
}

// MaxRoundsHint sizes the round bound from the widest packed row: the
// paced drain of that row takes ~len rounds at one word per link per
// round, which for dense operands (K columns) can exceed the engine's
// n-scaled 4n+64 default. Sizing from the actual data means legal
// products never hit engine.ErrMaxRounds; the 4n+64 also covers a vote's
// two rounds.
func (p *Pass) MaxRoundsHint() int { return 4*p.n + 64 + p.maxRow }

// Sparse assembles the accumulated result as a sparse Matrix. Call it
// only after the pass's engine run has quiesced.
func (p *Pass) Sparse() *Matrix {
	nnz := 0
	for _, v := range p.flat {
		if v != p.sr.Zero {
			nnz++
		}
	}
	bld := newBuilder(p.n, p.sr)
	bld.m.Cols = make([]core.NodeID, 0, nnz)
	bld.m.Vals = make([]int64, 0, nnz)
	for _, acc := range p.accs {
		bld.appendRow(acc)
	}
	return bld.m
}

// Dense returns the accumulated result as an n x cols Dense — the
// accumulator slab already is the row-major result, so this is
// copy-free. Call it only after the pass's engine run has quiesced.
func (p *Pass) Dense() *Dense {
	return &Dense{N: p.n, K: p.cols, Sr: p.sr, Vals: p.flat}
}
