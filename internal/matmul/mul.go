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
// non-Zero, non-One values of the B operand; Zero is never sent.
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
// holds the split for one product; it is derived from the B operand
// alone, so every rank and every crash-resume rebuilds identical words.
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

// valueRange is the span of the values a B operand sends that need a
// field code of their own: every non-Zero value but One.
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

// newWireFormat derives the format for a B operand with the given
// column count from its values (Zero entries are exempt: they are never
// transmitted).
func newWireFormat(cols int, vals []int64, sr core.Semiring, what string) (*wireFormat, error) {
	var rg valueRange
	for _, v := range vals {
		if v != sr.Zero && v != sr.One {
			rg.add(v)
		}
	}
	return rg.format(cols, sr, what)
}

// format derives the wire format for the values in rg. It rejects
// negative values and value ranges whose field does not fit beside the
// column index, before any round runs.
func (rg valueRange) format(cols int, sr core.Semiring, what string) (*wireFormat, error) {
	if rg.lo < 0 {
		return nil, fmt.Errorf("matmul: %s value %d is negative; the wire format carries only non-negative values", what, rg.lo)
	}
	idxBits := uint(core.Log2Ceil(cols))
	width := uint(1) // code 1 (One) alone
	if rg.ranged {
		width = uint(bits.Len64(uint64(rg.hi-rg.lo) + 2))
	}
	if idxBits+width > 63 {
		return nil, fmt.Errorf(
			"matmul: %s values span [%d, %d], which needs a %d-bit field; a wire word has %d bits beside its %d column-index bits",
			what, rg.lo, rg.hi, width, 63-idxBits, idxBits)
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

// packRows packs rows 0..n-1, each supplied by row as for packRow, into
// one shared slab and returns the per-row word slices.
func (wf *wireFormat) packRows(n int, row func(core.NodeID) ([]core.NodeID, []int64)) [][]uint64 {
	var slab []uint64
	ends := make([]int, n)
	for v := range ends {
		cols, vals := row(core.NodeID(v))
		slab = wf.packRow(slab, cols, vals)
		ends[v] = len(slab)
	}
	packed := make([][]uint64, n)
	lo := 0
	for v, hi := range ends {
		packed[v] = slab[lo:hi:hi]
		lo = hi
	}
	return packed
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
	dense   bool       // B's row is bRow; bCols/bVals otherwise
	bRow    []int64
	bCols   []core.NodeID
	bVals   []int64
	ran     bool // this process executes the node
	changed bool // this node knows the product differs from B
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
		if r < vt.final || !vt.differs(nd.acc, nd.sr.Zero) {
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

// differs reports whether the finished row acc of C is not this node's
// row of B; entries a sparse row omits are zero.
func (vt *voter) differs(acc []int64, zero int64) bool {
	if vt.dense {
		return !slices.Equal(acc, vt.bRow)
	}
	i := 0
	for j, c := range acc {
		want := zero
		if i < len(vt.bCols) && int(vt.bCols[i]) == j {
			want = vt.bVals[i]
			i++
		}
		if c != want {
			return true
		}
	}
	return false
}

// Pass is one validated, packed distributed product C = A ⊗ B prepared
// as a single engine pass: n mulNodes, node v holding row v of both
// operands and accumulating row v of C. Power and Relaxation hand a
// Pass's Nodes to a clique session and harvest the result with Sparse or
// Dense after the pass quiesces, chaining one Pass per product on one
// warm session.
type Pass struct {
	n, cols int
	sr      core.Semiring
	maxRow  int
	nodes   []engine.Node
	state   []mulNode
	accs    [][]int64
	flat    []int64

	// The B operand (one of the two is set), kept for vote.
	bSparse *Matrix
	bDense  *Dense
	voters  []voter

	// gather synchronizes the accumulator slab across transport ranks
	// at harvest time: the product loop (Power, Relaxation) passes on
	// the transport the clique session injected through its
	// TransportAware hook; nil for purely local runs. gathered makes
	// Gather idempotent across the repeated harvest calls the loops
	// make.
	gather   engine.Gatherer
	gathered bool
}

// Gather synchronizes the accumulated result slab across all ranks of
// the session's transport — each rank contributes the rows of the
// nodes it executed. It must run after the pass's engine run quiesced
// and before Sparse or Dense; calling it again is a no-op.
func (p *Pass) Gather() error {
	if p.gathered {
		return nil
	}
	if p.gather != nil && len(p.flat) > 0 {
		if err := p.gather.AllGatherRows(p.flat, p.cols); err != nil {
			return err
		}
	}
	p.gathered = true
	return nil
}

// NewPass validates and packs the sparse product A ⊗ B. unpaced selects
// a budget-violating mode in which each responder pushes its entire row
// to every requester within a single round, so any row wider than the
// per-link cap fails the pass with a *engine.BandwidthError. It exists
// to show why the paced schedule is necessary
// (TestUnpacedProductReturnsBandwidthError); every other caller passes
// false.
func NewPass(a, b *Matrix, unpaced bool) (*Pass, error) {
	if err := checkPair(a.N, b.N, a.Sr, b.Sr); err != nil {
		return nil, err
	}
	wf, err := newWireFormat(a.N, b.Vals, b.Sr, "matrix")
	if err != nil {
		return nil, err
	}
	p := newPass(a, wf.packRows(b.N, b.Row), a.N, wf, unpaced, nil)
	p.bSparse = b
	return p, nil
}

// newSquarePass is the semi-naive squaring X ⊗ X = X ⊕ X ⊗ Δ, where
// X = prev ⊗ prev, prev carries One on its diagonal (Power says why it
// is exact), and Δ, the entries of X that differ from prev, takes one
// merge per row. It is the product X ⊗ Δ with each node's accumulator
// started from X[v]: node v asks each k in supp(X[v]) for Δ[k] and
// multiplies it by its own X[v][k]. The wire format is X's: Δ's values
// are a subset of X's.
func newSquarePass(x, prev *Matrix) (*Pass, error) {
	if err := checkPair(x.N, prev.N, x.Sr, prev.Sr); err != nil {
		return nil, err
	}
	wf, err := newWireFormat(x.N, x.Vals, x.Sr, "matrix")
	if err != nil {
		return nil, err
	}
	p := newPass(x, wf.packRows(x.N, changedEntries(x, prev).Row), x.N, wf, false, nil)
	p.bSparse = x
	for v, acc := range p.accs {
		cols, vals := x.Row(core.NodeID(v))
		for i, j := range cols {
			acc[j] = vals[i]
		}
	}
	return p, nil
}

// changedEntries returns the entries of x that prev does not hold with
// the same value, row by row in one merge. There are at least
// nnz(x) - nnz(prev) of them, since x ⊇ prev.
func changedEntries(x, prev *Matrix) *Matrix {
	atLeast := max(0, x.NNZ()-prev.NNZ())
	d := &Matrix{
		N:    x.N,
		Sr:   x.Sr,
		Rows: make([]int32, 1, x.N+1),
		Cols: make([]core.NodeID, 0, atLeast),
		Vals: make([]int64, 0, atLeast),
	}
	for v := 0; v < x.N; v++ {
		xc, xv := x.Row(core.NodeID(v))
		pc, pv := prev.Row(core.NodeID(v))
		i := 0
		for t, j := range xc {
			for i < len(pc) && pc[i] < j {
				i++
			}
			if i == len(pc) || pc[i] != j || pv[i] != xv[t] {
				d.Cols = append(d.Cols, j)
				d.Vals = append(d.Vals, xv[t])
			}
		}
		d.Rows = append(d.Rows, int32(len(d.Cols)))
	}
	return d
}

// NewDensePass validates and packs the sparse-dense product A ⊗ B with
// B (and C) n x k dense. Zero entries of B are not transmitted.
func NewDensePass(a *Matrix, b *Dense, unpaced bool) (*Pass, error) {
	return newDensePass(a, b, nil, unpaced)
}

// newDensePass is NewDensePass for the next product of a relaxation
// over a reflexive A when prev, the B of the product before, is set.
// Then only the entries of B that differ from prev are packed, and each
// node's accumulator starts from its own row of B instead of Zero: B
// is prev ⊕ Δ for the changed entries Δ, because A's One diagonal and
// an idempotent Add make B = A ⊗ prev ⊇ prev, so
// A ⊗ B = A ⊗ prev ⊕ A ⊗ Δ = B ⊕ A ⊗ Δ. The wire format is derived from
// the values actually sent.
func newDensePass(a *Matrix, b, prev *Dense, unpaced bool) (*Pass, error) {
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
	wf, err := rg.format(b.K, b.Sr, "dense")
	if err != nil {
		return nil, err
	}
	cols := make([]core.NodeID, 0, b.K)
	vals := make([]int64, 0, b.K)
	next := 0
	packed := wf.packRows(b.N, func(v core.NodeID) ([]core.NodeID, []int64) {
		cols, vals = cols[:0], vals[:0]
		rowStart := int(v) * b.K
		for ; next < len(sent) && sent[next] < rowStart+b.K; next++ {
			cols = append(cols, core.NodeID(sent[next]-rowStart))
			vals = append(vals, b.Vals[sent[next]])
		}
		return cols, vals
	})
	var start []int64
	if prev != nil {
		start = b.Vals
	}
	p := newPass(a, packed, b.K, wf, unpaced, start)
	p.bDense = b
	return p, nil
}

// newPass wires n mulNodes (node v holding packed B-row packed[v] and a
// cols-wide accumulator) over a flat n*cols result slab that starts as
// a copy of start, or all Zero when start is nil.
func newPass(a *Matrix, packed [][]uint64, cols int, wf *wireFormat, unpaced bool, start []int64) *Pass {
	n := a.N
	p := &Pass{
		n:    n,
		cols: cols,
		sr:   a.Sr,
		accs: make([][]int64, n),
	}
	for _, row := range packed {
		if len(row) > p.maxRow {
			p.maxRow = len(row)
		}
	}
	if start != nil {
		p.flat = slices.Clone(start)
	} else {
		p.flat = NewDense(n, cols, a.Sr).Vals
	}
	p.nodes = make([]engine.Node, n)
	p.state = make([]mulNode, n)
	for v := 0; v < n; v++ {
		aCols, aVals := a.Row(core.NodeID(v))
		p.accs[v] = p.flat[v*cols : (v+1)*cols]
		p.state[v] = mulNode{
			sr:     a.Sr,
			wf:     wf,
			aCols:  aCols,
			aVals:  aVals,
			packed: packed[v],
			acc:    p.accs[v],
			unpace: unpaced,
		}
		p.nodes[v] = &p.state[v]
	}
	return p
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
		vt := &p.voters[v]
		vt.widest = widest
		if p.bDense != nil {
			vt.dense, vt.bRow = true, p.bDense.Row(core.NodeID(v))
		} else {
			vt.bCols, vt.bVals = p.bSparse.Row(core.NodeID(v))
		}
		p.state[v].vote = vt
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
// the pass has quiesced and Gather has run.
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
		if p.voters[v].differs(p.accs[v], p.sr.Zero) {
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
