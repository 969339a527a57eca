package matmul

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
// columns start, start+1, ... Unused high slots are 0, and no packed
// word is 0, which leaves payload 0 free for a pass's vote.
// Columns are global, so a segment of a row packs exactly like a row.
// wireFormat holds the split for one product; it is derived from the
// values the product sends alone, so every rank and every crash-resume
// rebuilds identical words. A pass at any shape but the row-pull
// (n, 1, 1) has two (cubeNode): its segments of X and Δ travel in the
// format of the values they carry, and its partial rows of C in one
// whose range covers every product of an X value and a Δ value
// (cubePlan.formats).
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

// union returns the range that covers rg and o.
func (rg valueRange) union(o valueRange) valueRange {
	if o.ranged {
		rg.add(o.lo)
		rg.add(o.hi)
	}
	return rg
}

// times returns the range of the values Mul(x, y) takes for x in rg or
// One and y in o or One, leaving One out as format does — the values a
// cube pass's partial rows carry, since every semiring here is monotone
// in each argument. ok is false when a product of two values saturates
// to Zero, so no range short of Zero bounds them.
func (rg valueRange) times(o valueRange, sr core.Semiring) (out valueRange, ok bool) {
	out = rg.union(o)
	if !rg.ranged || !o.ranged {
		return out, true
	}
	for _, x := range []int64{rg.lo, rg.hi} {
		for _, y := range []int64{o.lo, o.hi} {
			switch m := sr.Mul(x, y); m {
			case sr.Zero:
				return out, false
			case sr.One:
			default:
				out.add(m)
			}
		}
	}
	return out, true
}

// packSet appends one row, whose entries are bits lo..hi-1 of the
// bitset set — bit j is column off+j, with the value vals[j] — in
// whichever encoding needs fewer words (sparse on a tie). In the 1-bit
// format every field is One, vals is not read and may be nil, and a
// positional word's fields are one shifted slice of the bitset. It is
// the one packer: every row, segment and partial row a pass sends is
// selected by a bitset (sweep, nonZeroSet) and packed here, without
// staging a (col, val) pair per entry.
func (wf *wireFormat) packSet(dst []uint64, set []uint64, vals []int64, lo, hi, off int) []uint64 {
	cnt := countBits(set, lo, hi)
	if cnt == 0 {
		return dst
	}
	// One sparse word holds the row when its entries fit: no positional
	// word does better.
	sparseWords, posWords := 1, 1
	if cnt > wf.sparsePer {
		sparseWords, posWords = (cnt+wf.sparsePer-1)/wf.sparsePer, 0
		for j := nextBit(set, lo, hi); j < hi && posWords < sparseWords; posWords++ {
			j = nextBit(set, j+wf.posPer, hi)
		}
	}
	// Shift counts masked with 63, a no-op (a field ends by bit 62), so
	// the compiler drops its out-of-range-shift test per field.
	idxBits, width, ones := wf.idxBits&63, wf.width&63, wf.width == 1
	if posWords < sparseWords {
		for j := nextBit(set, lo, hi); j < hi; j = nextBit(set, j+wf.posPer, hi) {
			m := bitsAt(set, j, min(wf.posPer, hi-j))
			w := posFlag | uint64(off+j)
			if ones {
				w |= m << idxBits
			}
			for ; !ones && m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				w |= wf.field(vals[j+i]) << ((idxBits + uint(i)*width) & 63)
			}
			dst = append(dst, w)
		}
		return dst
	}
	entBits := (idxBits + width) & 63
	var w uint64
	s := uint(0)
	first, last := lo/64, (hi-1)/64
	for k := first; k <= last; k++ {
		m := set[k]
		if k == first {
			m &= ^uint64(0) << (lo % 64)
		}
		if k == last {
			m &= ^uint64(0) >> (63 - (hi-1)%64)
		}
		for ; m != 0; m &= m - 1 {
			j := k*64 + bits.TrailingZeros64(m)
			f := uint64(1)
			if !ones {
				f = wf.field(vals[j])
			}
			w |= (uint64(off+j)<<width | f) << (s * entBits & 63)
			if s++; s == uint(wf.sparsePer) {
				dst, w, s = append(dst, w), 0, 0
			}
		}
	}
	if s > 0 {
		dst = append(dst, w)
	}
	return dst
}

// packShort is packSet for a dense row of at most sparsePer columns,
// whose entries always fit one sparse word: it appends that word, the
// non-Zero row[j] at column off+j, or nothing for a row all Zero.
func (wf *wireFormat) packShort(dst []uint64, row []int64, zero int64, off int) []uint64 {
	entBits, width := (wf.idxBits+wf.width)&63, wf.width&63
	var w uint64
	s := uint(0)
	for j, v := range row {
		if v != zero {
			w |= (uint64(off+j)<<width | wf.field(v)) << (s * entBits & 63)
			s++
		}
	}
	if s == 0 {
		return dst
	}
	return append(dst, w)
}

// sweep is the one pass over an operand b that decides what a product
// sends. It writes each row's selection bitset into sel, ⌈K/64⌉ words a
// row: bit j of row v is set when b[v][j] is non-Zero and, with prev
// set, differs from prev[v][j]. With d non-nil (a cube pass, which also
// sends segments of the whole operand) sel selects every non-Zero entry
// and d those that also differ from prev. It returns the range of the
// non-One values sel selects. The selection has no data-dependent
// branch (selectChunk); the range then walks the selected non-One
// entries alone, a min and a max each.
func sweep(b, prev *Dense, sel, d []uint64) valueRange {
	zero, one, rw := b.Sr.Zero, b.Sr.One, (b.K+63)/64
	var whole, split uint64 // 1 when there is no prev; 1 when d is set
	if prev == nil {
		whole = 1
	}
	if d != nil {
		split = 1
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for v := 0; v < b.N; v++ {
		row, old := b.Row(core.NodeID(v)), b.Row(core.NodeID(v))
		if prev != nil {
			old = prev.Row(core.NodeID(v))
		}
		for w := 0; w < rw; w++ {
			xs := row[w*64 : min(w*64+64, b.K)]
			ps := old[w*64:][:len(xs)]
			sm, dm, om := selectChunk(xs, ps, zero, one, whole, split)
			for ; om != 0; om &= om - 1 {
				x := xs[bits.TrailingZeros64(om)]
				lo, hi = min(lo, x), max(hi, x)
			}
			sel[v*rw+w] = sm
			if d != nil {
				d[v*rw+w] = dm
			}
		}
	}
	if lo > hi {
		return valueRange{}
	}
	return valueRange{lo: lo, hi: hi, ranged: true}
}

// selectChunk is sweep's test of up to 64 entries xs of a row against
// their entries ps of prev: bit i of sm is set when xs[i] is non-Zero
// and, unless split, differs from ps[i] (or whole is 1); of dm when it
// is non-Zero and differs (or whole); of om when it is set in sm and
// xs[i] is not One.
func selectChunk(xs, ps []int64, zero, one int64, whole, split uint64) (sm, dm, om uint64) {
	ps = ps[:len(xs)]
	for i, x := range xs {
		nz, ch, no := flag(x != zero), flag(x != ps[i])|whole, flag(x != one)
		s, sh := nz&(ch|split), uint(i)&63
		sm, dm, om = sm|s<<sh, dm|nz&ch<<sh, om|s&no<<sh
	}
	return sm, dm, om
}

// flag is 1 for true and 0 for false, without a branch.
func flag(b bool) uint64 {
	var f uint64
	if b {
		f = 1
	}
	return f
}

// nonZeroSet writes into set the bitset of row's non-Zero entries,
// branch-free as sweep is.
func nonZeroSet(set []uint64, row []int64, zero int64) {
	for w := range set {
		var m uint64
		for i, x := range row[w*64 : min(w*64+64, len(row))] {
			m |= flag(x != zero) << (uint(i) & 63)
		}
		set[w] = m
	}
}

// countBits returns how many of bits lo..hi-1 of set are set.
func countBits(set []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	first, last := lo/64, (hi-1)/64
	head, tail := ^uint64(0)<<(lo%64), ^uint64(0)>>(63-(hi-1)%64)
	if first == last {
		return bits.OnesCount64(set[first] & head & tail)
	}
	cnt := bits.OnesCount64(set[first]&head) + bits.OnesCount64(set[last]&tail)
	for _, m := range set[first+1 : last] {
		cnt += bits.OnesCount64(m)
	}
	return cnt
}

// nextBit returns the first set bit of set at or after j and before hi,
// or hi when there is none.
func nextBit(set []uint64, j, hi int) int {
	if j >= hi {
		return hi
	}
	w := j / 64
	m := set[w] >> (j % 64) << (j % 64)
	for m == 0 {
		if w++; w*64 >= hi {
			return hi
		}
		m = set[w]
	}
	return min(w*64+bits.TrailingZeros64(m), hi)
}

// bitsAt returns bits j..j+k-1 of set as the low k bits of a word, for
// 0 < k ≤ 64.
func bitsAt(set []uint64, j, k int) uint64 {
	w, sh := j/64, uint(j%64)
	m := set[w] >> sh
	if sh != 0 && w+1 < len(set) {
		m |= set[w+1] << (64 - sh)
	}
	return m & (1<<uint(k) - 1)
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

// firstCol returns the column of the first entry a packed word carries.
func (wf *wireFormat) firstCol(w uint64) int {
	if w&posFlag != 0 {
		return int(w & wf.idxMask)
	}
	return int(w >> wf.width & wf.idxMask)
}

// decode writes the entries one packed word carries into the dense
// segment row whose first column is off — entry (j, v) lands at
// row[j-off] — and returns how many it wrote. A column outside the
// segment panics on the slice bound.
func (wf *wireFormat) decode(w uint64, row []int64, off int) (entries int) {
	one, base, fMask := wf.one, wf.base, wf.fMask
	value := func(f uint64) int64 {
		if f == 1 {
			return one
		}
		return base + int64(f)
	}
	// Shift counts masked with 63, as in the accumulate loops.
	width, idxBits := wf.width&63, wf.idxBits&63
	if w&posFlag != 0 {
		w &^= posFlag
		j := int(w&wf.idxMask) - off
		for w >>= idxBits; w != 0; w, j = w>>width, j+1 {
			if f := w & fMask; f != 0 {
				row[j] = value(f)
				entries++
			}
		}
		return entries
	}
	for entBits := (idxBits + width) & 63; w != 0; w >>= entBits {
		if f := w & fMask; f != 0 {
			row[int(w>>width&wf.idxMask)-off] = value(f)
			entries++
		}
	}
	return entries
}

// decodeAt is decode into a row that keeps only some columns: entry
// (j, v) lands at row[slot[j-off]], and nowhere when that is negative.
func (wf *wireFormat) decodeAt(w uint64, row []int64, slot []int32, off int) {
	put := func(j int, f uint64) {
		if s := slot[j-off]; f != 0 && s >= 0 {
			row[s] = wf.base + int64(f)
			if f == 1 {
				row[s] = wf.one
			}
		}
	}
	width, idxBits := wf.width&63, wf.idxBits&63
	if w&posFlag != 0 {
		w &^= posFlag
		j := int(w & wf.idxMask)
		for w >>= idxBits; w != 0; w, j = w>>width, j+1 {
			put(j, w&wf.fMask)
		}
		return
	}
	for entBits := (idxBits + width) & 63; w != 0; w >>= entBits {
		put(int(w>>width&wf.idxMask), w&wf.fMask)
	}
}

// decodeBits sets the bits of the columns one packed word of the 1-bit
// format carries in the bitset row, whose first column is off. A
// positional word's fields are a bitmap already, so it lands as one
// shifted word or two.
func (wf *wireFormat) decodeBits(w uint64, row []uint64, off int) {
	idxBits := wf.idxBits & 63
	if w&posFlag != 0 {
		w &^= posFlag
		j := int(w&wf.idxMask) - off
		m := w >> idxBits
		row[j/64] |= m << (j % 64)
		if spill := m >> (63 - j%64) >> 1; spill != 0 {
			row[j/64+1] |= spill
		}
		return
	}
	for entBits := (idxBits + 1) & 63; w != 0; w >>= entBits {
		if w&1 != 0 {
			j := int(w>>1&wf.idxMask) - off
			row[j/64] |= 1 << (j % 64)
		}
	}
}

// mulNode is the owner's half of a node of any product C = A ⊗ B (the
// node program is cubeNode's): node v owns row v of B and accumulates
// row v of C into acc, folding each packed word it is owed in the format
// wf, and sends through its sender. On a voting pass the accumulator
// starts at the node's row of B, and the node takes part in the vote
// (tally).
//
// At the shape (n, 1, 1) (cubePlan.rows) the node also holds row v of A,
// aCols and aVals, and folds a row of B as it arrives: A is symmetric
// (every product's precondition), so the nodes that multiply by row k
// of B — every v != k with A[v][k] != Zero — are exactly the
// off-diagonal columns of node k's own row of A, to which node k
// multicasts it, and nobody has to ask for a row.
type mulNode struct {
	sr    core.Semiring
	wf    *wireFormat
	aCols []core.NodeID // at (n, 1, 1): also who this node streams its row of B to, itself aside
	aVals []int64
	acc   []int64 // this node's row of C, dense
	out   sender
	// bRow is this node's row of B on a voting pass, nil on any other;
	// fromZero says the accumulator starts at Zero, ran that this process
	// executes the node, changed that the node knows the product differs
	// from B.
	bRow                   []int64
	fromZero, ran, changed bool
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
//
// A positional word's fields are decoded without a branch: each field's
// term is picked by conditional moves — the saturated sum, aik for One,
// and the accumulator's own value for an empty field, so that the one
// min leaves it exactly as it was — and the loop stores every column
// up to the word's last entry.
func (nd *mulNode) accumulateMinPlus(aik int64, w uint64) {
	wf, acc := nd.wf, nd.acc
	width, fMask := wf.width&63, wf.fMask
	ab, fInf := aik+wf.base, core.InfWeight-wf.base
	if w&posFlag != 0 {
		w &^= posFlag
		j := int(w & wf.idxMask)
		for w >>= wf.idxBits & 63; w != 0; w, j = w>>width, j+1 {
			f, a := int64(w&fMask), acc[j]
			t := ab + f
			if t >= core.InfWeight {
				t = core.InfWeight
			}
			if f >= fInf {
				t = core.InfWeight
			}
			if f == 1 {
				t = aik
			}
			if f == 0 {
				t = a
			}
			acc[j] = min(a, t)
		}
		return
	}
	term := func(f uint64) int64 {
		if f == 1 {
			return aik
		}
		if s := ab + int64(f); int64(f) < fInf && s < core.InfWeight {
			return s
		}
		return core.InfWeight
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
	if w&posFlag != 0 {
		// Branch-free, as in accumulateMinPlus.
		w &^= posFlag
		j := int(w & wf.idxMask)
		for w >>= wf.idxBits & 63; w != 0; w, j = w>>width, j+1 {
			f, a := int64(w&fMask), acc[j]
			t := min(aik, wf.base+f)
			if f == 1 {
				t = aik
			}
			if f == 0 {
				t = a
			}
			acc[j] = max(a, t)
		}
		return
	}
	term := func(f uint64) int64 {
		if f == 1 {
			return aik
		}
		return min(aik, wf.base+int64(f))
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

// fold folds one round's inbox of node id into its row of C: at
// (n, 1, 1), rows set, each data word from src with A[v][src], which
// exists whenever A is symmetric: src streams to the columns of its own
// row; at any other shape each as a partial row, with One. The inbox is
// source-ascending, as aCols is, so one index walks both; a source
// behind the index (any other delivery order) finds its column by a
// binary search instead. heard says a vote word arrived, folded that
// data did.
func (nd *mulNode) fold(id core.NodeID, inbox []engine.Message, rows bool) (folded, heard bool, err error) {
	cols, i := nd.aCols, 0
	for _, m := range inbox {
		if m.Payload == 0 {
			heard = true // a vote word
			continue
		}
		aik := nd.sr.One
		if rows {
			if i == len(cols) || cols[i] > m.Src {
				i, _ = slices.BinarySearch(cols, m.Src)
			}
			for i < len(cols) && cols[i] < m.Src {
				i++
			}
			if i == len(cols) || cols[i] != m.Src {
				return folded, heard, fmt.Errorf("matmul: node %d got unsolicited data from %d", id, m.Src)
			}
			aik = nd.aVals[i]
		}
		nd.accumulate(aik, m.Payload)
		folded = true
	}
	return folded, heard, nil
}

// tally is a voting node's part in round r of the vote a pass takes on
// whether its product equals its B operand — the question every product
// loop x <- S ⊗ x asks to know it has reached its fixpoint — once the
// node has folded what reached it: heard says a vote word did, folded
// that data did. The vote is self-timed. The accumulator starts at B and
// only ever moves away from it, so the product differs from B exactly
// when some row moves. The node that first learns so — its row moved, or
// a vote word reached it — queues its own vote word (sender.vote): node
// 0 its verdict to every other node; any other node a ballot to node 0,
// unless node 0's verdict reached it first. Every node but node 0 then
// hears the verdict, and node 0 knows its own, so every rank of a
// multi-process clique reads the same answer off its own nodes. A pass
// whose product equals B sends no vote word, and ends in the round the
// bare pass does; any other pays at most 2 rounds and 2(n-1) words over
// it.
func (nd *mulNode) tally(ctx *engine.Ctx, r core.Round, heard, folded bool) {
	if nd.bRow != nil && !nd.changed && (heard || folded && !slices.Equal(nd.acc, nd.bRow)) {
		nd.changed = true
		if id := ctx.ID(); id == 0 || !heard {
			nd.out.vote(id, ctx.NumNodes(), r)
		}
	}
}

// sender is what one node sends in a pass, the one place the node
// program sends from: the transfers it holds, each a run of words to one
// destination or, one Multicast a word, to the nodes of to, word i in
// round at+i. The node program times its transfers so that a link
// carries at most one word a round (cubeNode), and the vote
// word goes behind every word its link still carries (vote). unpace
// sends every transfer whole in its first round instead, which breaks
// the link budget on purpose (NewPass).
type sender struct {
	xs     []transfer
	to     []core.NodeID // the destinations of the one multicast transfer
	unpace bool
}

// transfer is words for dst, word i in round at+i; a dst of multicast
// stands for every node of its sender's to but the sender.
type transfer struct {
	words []uint64
	at    core.Round
	dst   core.NodeID
}

// multicast is the dst of a sender's multicast transfer.
const multicast core.NodeID = -1

// voteWord is the vote's one word: 0, which no packed word is.
var voteWord = []uint64{0}

// add queues words for dst from round at on; no words queue nothing.
func (s *sender) add(dst core.NodeID, words []uint64, at core.Round) {
	if len(words) > 0 {
		s.xs = append(s.xs, transfer{words: words, at: at, dst: dst})
	}
}

// vote queues node id's vote word in round r: any other node's ballot
// to node 0, node 0's verdict to every other node. Each leaves in round
// r or, on a link that still carries data, in the round after the
// data's last word.
func (s *sender) vote(id core.NodeID, n int, r core.Round) {
	lo := core.NodeID(0) // the ballot's link
	if id == 0 {
		lo = 1 // the verdict's first
	}
	data := len(s.xs)
	for v := range votes(int(id), n) {
		s.add(lo+core.NodeID(v), voteWord, r)
	}
	vs := s.xs[data:] // vs[v-lo] is the word for v
	for _, x := range s.xs[:data] {
		dsts := s.to
		if x.dst != multicast {
			dsts = []core.NodeID{x.dst}
		}
		for _, v := range dsts {
			if i := int(v - lo); i >= 0 && i < len(vs) {
				vs[i].at = max(vs[i].at, x.at+core.Round(len(x.words)))
			}
		}
	}
}

// votes is how many vote words node v sends: n-1 from node 0, one from
// any other.
func votes(v, n int) int {
	if v == 0 {
		return n - 1
	}
	return 1
}

// send sends round r's word of every transfer, and drops the transfers
// it finishes. The order of the transfers does not matter — no two put
// a word on one link in one round — so the last takes a dropped one's
// place.
func (s *sender) send(ctx *engine.Ctx, r core.Round) error {
	xs := s.xs
	for i := 0; i < len(xs); {
		x := &xs[i]
		k := int(r - x.at)
		if k < 0 {
			i++
			continue
		}
		end := k + 1
		if s.unpace {
			end = len(x.words)
		}
		for ; k < end; k++ {
			var err error
			if x.dst == multicast {
				err = ctx.Multicast(s.to, x.words[k])
			} else {
				err = ctx.Send(x.dst, x.words[k])
			}
			if err != nil {
				return err
			}
		}
		if end < len(x.words) {
			i++
			continue
		}
		if last := len(xs) - 1; i < last {
			xs[i] = xs[last]
		}
		xs = xs[:len(xs)-1]
	}
	if len(xs) < len(s.xs) {
		s.xs = xs
	}
	return nil
}

// Pass is one validated, packed distributed product C = A ⊗ B prepared
// as a single engine pass: the plan it runs, what its owners packed, and
// n nodes (cubeNode) running the plan's shape, node v owning row v of B
// and accumulating row v of C into its accumulator slab, each sending
// through its own sender. A voting pass also decides in-engine whether C
// equals B (tally), and its accumulators start at B; it is exact only
// when that cannot change the product, B ⊆ A ⊗ B, which a loop's One
// diagonal and an idempotent Add make so: only the loops build one.
// Power and Relaxation hand a Pass to a clique session — its nodes, its
// MaxRoundsHint and the slab as the rows to gather — and harvest the
// result with Sparse or Dense after the pass quiesces, chaining one Pass
// per product on one warm session.
type Pass struct {
	*cubePlan
	sr     core.Semiring
	wf     *wireFormat // the format of the X-updates and Δ segments
	prev   *Dense      // P, the operand of the squaring before
	wide   int         // the widest phase-1 link, in words
	maxRow int
	flat   []int64
	b      *Dense // the B operand, which the vote compares C with
	voting bool
}

// Gather does nothing and returns nil. A pass run on a bare engine
// holds every row already; a pass run by a clique session (through
// Power or Relaxation) has its accumulator slab all-gathered by the
// session, which receives it as the clique.Pass Rows.
func (p *Pass) Gather() error { return nil }

// NewPass validates and packs the sparse product A ⊗ B; A must equal
// its transpose (newPass). unpaced selects a budget-violating
// mode in which each node pushes its entire row to every receiver
// within a single round, so any row wider than one word fails the pass
// with a *engine.BandwidthError. It exists to show why the paced
// schedule is necessary
// (TestUnpacedProductReturnsBandwidthError); every other caller passes
// false.
func NewPass(a, b *Matrix, unpaced bool) (*Pass, error) {
	return NewDensePass(a, dense(b), unpaced)
}

// NewDensePass validates and packs the sparse-dense product A ⊗ B with
// B (and C) n x k dense and A equal to its transpose; any other A is
// refused with an error naming an entry whose mirror is missing or
// holds another value. Zero entries of B are not transmitted. It runs
// at the shape (n, 1, 1) (rowPlan).
func NewDensePass(a *Matrix, b *Dense, unpaced bool) (*Pass, error) {
	if err := checkSymmetric(a); err != nil {
		return nil, err
	}
	p, err := newPass(b, nil, false, nil, rowPlan(a))
	for v := 0; err == nil && v < p.n; v++ {
		p.nds[v].out.unpace = unpaced
	}
	return p, err
}

// newPass builds every distributed product A ⊗ B, by the plan cp: n
// nodes over one flat result slab, node v accumulating row v of C in a
// K-wide accumulator. A must equal its transpose: at (n, 1, 1) node k
// sends its row of B to the columns of its own row of A, and at any
// other shape a cube node returns columns of its products as rows
// (cubeNode). Its callers check it once, before their first product:
// NewPass and NewDensePass, and each loop (checkLoop), whose later
// operands are its own products of a checked one. One sweep of B selects
// what each row sends and finds the range of those values
// (cubePlan.formats); every row is packed from its selection bitset
// (packSet), in the wire format of exactly the values it packs. The
// slab is acc when that is large enough — a slab the caller no longer
// needs, whose contents are overwritten — and a new one otherwise.
//
// With prev set, it packs only Δ, the entries of B that differ from
// prev, and starts each node's accumulator from its own row of B
// instead of Zero: the pass computes B ⊕ A ⊗ Δ. That is A ⊗ B in both
// loops that set prev:
//
//   - a Relaxation's engine product, prev the B the product before
//     started from (the indicator columns, before the first engine
//     product, which follows the local one). A's One diagonal and an
//     idempotent Add make B = A ⊗ prev ⊇ prev, so
//     B = prev ⊕ Δ and
//     A ⊗ B = A ⊗ prev ⊕ A ⊗ Δ = B ⊕ A ⊗ Δ;
//   - a semi-naive squaring, A = B = X = P ⊗ P and prev = P (Power says
//     why).
//
// vote makes the pass a voting one (Pass), whose accumulators start at
// B also without prev; only a loop asks for it, whose A has One on its
// diagonal, so B ⊆ A ⊗ B and the product is unchanged.
//
// A is the plan's left operand (cubePlan.s) — the bare product's A, a
// Power's first squaring's or multiply step's left operand, or a
// Relaxation's S — except on a semi-naive squaring's plan, which has
// none: there A is B = X itself, whose blocks the cube nodes are
// shipped. A cube pass's partial rows need a second format
// (cubePlan.formats); where no wire word fits one (a (min,+) operand
// whose largest values summed near InfWeight, which uploaded weights can
// reach), the product runs at (n, 1, 1) instead, over A = B for a
// squaring, and the loop's plan stays as it was.
func newPass(b, prev *Dense, vote bool, acc []int64, cp *cubePlan) (*Pass, error) {
	if cp.s != nil {
		if err := checkPair(cp.s.N, b.N, cp.s.Sr, b.Sr); err != nil {
			return nil, err
		}
	}
	wf, pwf, err := cp.formats(b, prev)
	if pwf == nil && err == nil {
		left := cp.s
		if left == nil {
			left = sparse(b)
		}
		cp = rowPlan(left)
		wf, pwf, err = cp.formats(b, prev)
	}
	if err != nil {
		return nil, err
	}
	n, k := b.N, b.K
	p := &Pass{cubePlan: cp, sr: b.Sr, wf: wf, prev: prev, b: b, voting: vote}
	fromZero := prev == nil && !vote
	if fromZero {
		p.flat = fill(&acc, n*k, b.Sr.Zero)
	} else {
		p.flat = append(acc[:0], b.Vals...)
	}
	p.pack()
	for v := range cp.nds {
		var aCols []core.NodeID
		var aVals, bRow []int64
		if cp.rows() {
			aCols, aVals = cp.s.Row(core.NodeID(v))
		}
		if vote {
			bRow = b.Row(core.NodeID(v))
		}
		room := cp.xs[cp.xsAt[v]:cp.xsAt[v]:cp.xsAt[v+1]]
		cp.nds[v] = cubeNode{mulNode: mulNode{sr: b.Sr, wf: pwf, aCols: aCols, aVals: aVals,
			acc: p.flat[v*k : (v+1)*k], out: sender{xs: room}, bRow: bRow, fromZero: fromZero},
			cb: p, buf: cp.nds[v].buf}
	}
	// Phase 1 drains in p.wide rounds. At any shape but (n, 1, 1) the
	// partial rows add at most one word per entry of a block row or
	// column, and the vote one word a link; 4n+64 covers the rest.
	p.maxRow = p.wide
	if !cp.rows() {
		p.maxRow += max(cp.lo(1), cp.loB(1)) + 1
	}
	return p, nil
}

// Nodes returns the pass's node set for one engine run.
func (p *Pass) Nodes() []engine.Node { return p.set }

// changed reports whether the product differs from its B operand, as
// the nodes this process executed heard it in the pass's vote (tally). A
// pass that does not vote reports true. Call it only after the pass has
// quiesced and its rows have been gathered.
func (p *Pass) changed() bool {
	if !p.voting {
		return true
	}
	ran := false
	for i := range p.nds {
		if p.nds[i].changed {
			return true
		}
		ran = ran || p.nds[i].ran
	}
	if ran {
		return false
	}
	// A rank of a clique with more ranks than nodes executes no node: it
	// is no party to the vote, and learns the outcome where it learns the
	// product, from the gathered rows.
	return !slices.Equal(p.flat, p.b.Vals)
}

// MaxRoundsHint sizes the round bound from the widest phase-1 link: the
// paced drain of that link takes ~len rounds at one word per link per
// round, which for dense operands (K columns) can exceed the engine's
// n-scaled 4n+64 default. Sizing from the actual data means legal
// products never hit engine.ErrMaxRounds; the 4n+64 also covers a vote's
// two rounds.
func (p *Pass) MaxRoundsHint() int { return 4*p.n + 64 + p.maxRow }

// Sparse assembles the accumulated result as a sparse Matrix. Call it
// only after the pass's engine run has quiesced.
func (p *Pass) Sparse() *Matrix { return sparse(p.Dense()) }

// Dense returns the accumulated result as an n x cols Dense — the
// accumulator slab already is the row-major result, so this is
// copy-free. Call it only after the pass's engine run has quiesced.
func (p *Pass) Dense() *Dense {
	return &Dense{N: p.b.N, K: p.b.K, Sr: p.sr, Vals: p.flat}
}

// cubeNode executes one node's share of every distributed product, by
// the 3D partition of Censor-Hillel, Kaski, Korhonen, Lenzen, Paz &
// Suomela (PODC 2015) at the shape (q_a, q_b, q_c) of its plan, the
// parameter by which Censor-Hillel, Leitersdorf & Turner (PODC 2019)
// size it (cubePlan). Split [0, n) into q_a blocks B_a along a and q_c
// blocks B_c along c, B's columns into q_b blocks B_b along b; node
// t = (a·q_b + b)·q_c + c < q_a·q_b·q_c is cube node (a, b, c), which
// multiplies its block of the left operand, [B_a, B_c], by the Δ block
// [B_c, B_b]. Every node still owns its row of B, Δ and C. Three shapes
// run:
//
//   - (n, 1, 1), row-pull (cubePlan.rows): cube node a's block is its own
//     row of A, held from round 0, and B_c is all of [0, n), so owner k
//     multicasts Δ[k] (all of B[k], on a pass without prev) to the
//     nodes a with A[a][k] ≠ Zero — the off-diagonal support of its own
//     row, A being symmetric — one word a round from round 0. Node a
//     folds each word on arrival with A[a][k] (mulNode.fold): its
//     product is its own row of C, so no partial row touches a wire.
//     Where its accumulator starts at Zero it folds its own row in round
//     0; where it starts at B that is B[a] again, a loop's A having One
//     on its diagonal and Add being idempotent. The engine's quiescence
//     ends the pass the round after the last word is delivered.
//   - (q, q, q), q = ⌊n^{1/3}⌋: the semi-naive squaring
//     X ⊗ X = X ⊕ X ⊗ Δ (Power says why it is exact), below.
//   - (q, 1, q), q = ⌊√n⌋: a Relaxation's 2D product B ⊕ S ⊗ Δ, the
//     squaring's program with S in X's place, no a ≤ b rule and no
//     column emission.
//
// X is symmetric — A is (the loops' precondition), and so is every
// power of it — and so are Δ and X ⊗ X. So the product cube node
// (b, a, c) would compute, X[B_b, B_c] ⊗ Δ[B_c, B_a], is the transpose
// of what (a, b, c) does compute, and only the nodes with a ≤ b
// multiply; the others take no part in phase 1. Cube node t keeps K_t = X[B_a, B_c] of the last
// operand it squared from one squaring of a Power chain to the next; let
// K be what the cube nodes hold. The protocol:
//
//	rounds 0..F1-1: owner v in B_a streams X[v, B_c] − K[v, B_c], the
//	                entries of its row the cube node does not hold
//	                already, to (a, b, c) for every b ≥ a and every c,
//	                and Δ[v, B_b] to (a', b, a) for every b and every
//	                a' ≤ b, one word a link a round.
//	round F1:       every segment has arrived. Cube node (a, b, c)
//	                decodes its X-updates into K_t, so that K_t =
//	                X[B_a, B_c], and Δ[B_c, B_b] into a scratch dense
//	                block, and folds the partial product
//	                X[B_a, B_c] ⊗ Δ[B_c, B_b]. It starts streaming each
//	                non-empty row u of it to u's owner in B_a and, when
//	                a < b, each non-empty column w, as a partial row over
//	                the columns B_a, to w's owner in B_b. A node whose Δ
//	                block is empty has no partial row and skips its
//	                product.
//	rounds > F1:    owners fold the partial rows into acc, which starts
//	                at X[u]; senders stream the next words.
//
// Delivering the columns as rows is exact. Owner w in B_b gets, over
// every c, column w of (X ⊗ Δ)[B_a, B_b], which is row w of
// (Δ ⊗ X)[B_b, B_a] since X and Δ are symmetric and ⊗ commutes. Its
// accumulator starts at X[w] = X[·, w]ᵀ, and X ⊕ Δ ⊗ X is the transpose
// of X ⊕ X ⊗ Δ = X ⊗ X, which is symmetric: so the row it folds to is
// row w of X ⊗ X, bit for bit what the rows of (b, a, c) would have
// given.
//
// On a chain's first cube squaring (or the first after one at
// (n, 1, 1)) K is empty and the X-updates are all of X[v, B_c]. After it
// K holds the blocks of prev, the operand of that squaring, so X − K is
// exactly Δ: each owner packs its q segments of Δ and sends them in both
// roles. Decoding is exact either way: an update overwrites an entry
// (ORs a bit over (or,and)), X ⊇ prev under an idempotent ⊕, and every Δ
// entry carries X's value.
//
// K_t is exactly prev[B_a, B_c], what node t decoded in the squaring
// before, so the simulation keeps no copy of it: node t reads its block
// off prev, which Power holds anyway, when it multiplies. The same read
// rebuilds K on a chain restored from a checkpoint.
//
// Segments are packed rows (packSet) with global columns, so a receiver
// tells an X-update (columns in B_c, from a node of B_a) from a Δ
// segment (columns in B_b, from a node of B_c) by the column of its
// first entry. The one link that could carry both for the same block
// is into a diagonal node (a, a, a); there the X-update already sent
// doubles as the Δ segment, decoded into both blocks, so no second
// segment is sent. On a first squaring it is X[v, B_a] ⊇ Δ[v, B_a],
// which is exact because X ⊕ X ⊗ Δ' = X ⊗ X for any Δ ⊆ Δ' ⊆ X; later
// it is Δ[v, B_a] itself. A segment whose sender is its receiver, and a
// partial row for the cube node's own row, never touch a link.
//
// Every word goes through the node's sender: the phase-1 links from
// round 0, the partial rows from F1, each X-update ahead of the Δ
// segment its link also carries. F1 is the widest phase-1 link in words,
// a global of the operands every node is taken to know before round 0
// (docs/paper-map.md lists these). The engine's quiescence ends the pass
// once the partial rows are out.
//
// A voting pass takes the same self-timed vote at every shape (tally):
// acc starts at the owner's row of B, so a row has changed from the fold
// that moves it on, and a product that confirms the fixpoint sends no
// vote word at all.
type cubeNode struct {
	mulNode // the owner's half: acc, vote, sender, and wf, the format of what it folds
	cb      *Pass
	// got holds the phase-1 words received, still packed, from[i] the
	// sender of got[i] (two slices: a Message would pad to 16 bytes).
	got  []uint64
	from []core.NodeID
	buf  []uint64 // the partial rows the sender sends, kept across passes
}

// cubePlan is what the passes of one loop, or one bare product, share:
// the shape; the phase-1 link table, which the shape fixes (and, for a
// Relaxation, S's pattern); whether the cube nodes hold their blocks of
// the loop's left operand; and the buffers every pass refills, its nodes
// among them.
//
// The shape is (qa, qb, qc): qa blocks of the n rows along a, qb of B's
// cols columns along b, qc of the rows along c. A Power chain squares at
// (q, q, q), q = ⌊n^{1/3}⌋, on the cube nodes with a ≤ b. A Relaxation
// relaxes at (q, 1, q), q = ⌊√n⌋, or at (n, 1, 1) (relaxPlan): cube node
// (a, 0, c) holds S[B_a, B_c], receives the rows Δ[B_c] its block meets,
// and streams its partial rows to their owners in B_a. Every other
// product runs at (n, 1, 1) (rowPlan).
//
// The squaring and the 2D relaxation ship and bill their left operand's
// blocks in the loop's first cube pass, and read them off the operand,
// what each node decoded, afterwards. S never changes, so a Relaxation's
// blocks stay held, also for a later Relaxation that starts from its
// plan (Plan). At (n, 1, 1) each node's block is its own row of A, held
// from round 0: the plan's multicast lists are A's rows, and it has no
// link table and no sAt.
type cubePlan struct {
	n, cols    int // the rows of the left operand, and B's columns
	qa, qb, qc int // blocks along a, b and c
	// s is the left operand the plan fixes: a Relaxation's S, or any A at
	// (n, 1, 1); nil on a squaring chain, whose left operand is each
	// squaring's X. On a 2D plan, sRange is the range of S's non-One
	// values and sAt[u*(qc+1)+c] where its row u enters block c in S.Cols.
	s      *Matrix
	sRange valueRange
	sAt    []int32
	// held says the cube nodes hold the blocks of the left operand: of
	// prev on a squaring chain, so the X-updates are Δ; of S on a
	// Relaxation, so no S ships; of A, their own rows, at (n, 1, 1). Each
	// node knows it: it took part in the pass that shipped them.
	held bool
	// links[first[v]:first[v+1]] is what owner v sends in phase 1, and
	// to[toAt[v]:toAt[v+1]] the cube nodes of the links that carry its Δ.
	links       []link
	first, toAt []int
	to          []core.NodeID
	// xs[xsAt[v]:xsAt[v+1]] is node v's sender's room: two transfers a
	// phase-1 link or, from F1, one for each row and column of its
	// product and its vote words; at (n, 1, 1) its multicast and its vote
	// words.
	xsAt []int
	xs   []transfer
	// sel and dsel are sweep's selection bitsets of X and Δ, from which
	// heldBits also reads P's blocks over (or,and); a plan with an s keeps
	// Δ in dsel alone.
	sel, dsel []uint64
	// slab holds every owner's segments, segment i in
	// slab[starts[i]:ends[i]]: X[v, B_c] − K at xSeg(v, c) and Δ[v, B_b]
	// at dSeg(v, b), one segment while a chain's blocks are held.
	slab         []uint64
	starts, ends []int
	// in[t] is the phase-1 words cube node t holds at F1, kept in
	// got[at[t]:at[t+1]] and from likewise.
	in, at []int
	got    []uint64
	from   []core.NodeID
	// free holds the scratch no worker is using: at most one a worker,
	// kept for the whole loop.
	mu   sync.Mutex
	free []*cubeScratch
	// nds are the nodes of the pass in flight, which the next reuses, and
	// set the same nodes as the engine runs them.
	nds []cubeNode
	set []engine.Node
}

// link is one phase-1 link of an owner: to cube node t, the segments
// segs[x] then segs[d], an index of -1 naming none.
type link struct{ t, x, d int32 }

// cubeScratch is the blocks one local product decodes into and folds,
// taken from its plan's free list, so reused across a loop's products.
type cubeScratch struct {
	x, d, c []int64 // K_t's live columns, the Δ block's live rows, the product
	col     []int64 // one column of the product
	db      deltaBlock
	set     []uint64 // one partial row's selection bitset
	bits    []uint64 // multiplyBool's blocks, as bitsets
	slot    []int32  // the live row each row of the Δ block decodes into
	live    []int    // the rows of the Δ block a Δ word reached
	hit     []uint64 // the rows of the product that have a term
}

// share is cube node t = (a, b, c)'s part of a product: K_t is rows
// la..la+ra-1 by columns lc..lc+rc-1 of the left operand, its Δ block
// rows lc..lc+rc-1 by columns lb..lb+rb-1, and its product rows la.. by
// columns lb..
type share struct {
	t, a, b                int
	la, lb, lc, ra, rb, rc int
	diag                   bool // a = b = c on a squaring
}

// cubeRoot returns ⌊n^{1/3}⌋.
func cubeRoot(n int) int {
	q := 1
	for (q+1)*(q+1)*(q+1) <= n {
		q++
	}
	return q
}

// rowPlan returns the plan of a product at (n, 1, 1) over the left
// operand a, whose rows are the nodes' blocks and the owners' multicast
// lists.
func rowPlan(a *Matrix) *cubePlan {
	return &cubePlan{n: a.N, qa: a.N, qb: 1, qc: 1, s: a, held: true}
}

// rows reports whether the plan runs at (n, 1, 1), row-pull: each node's
// block of the left operand is its own row.
func (cp *cubePlan) rows() bool { return cp.s != nil && cp.qa == cp.n && cp.qc == 1 }

// lo returns the first row of block i along c (lo(qc) = n), and along
// a, which every shape but (n, 1, 1) splits alike.
func (cp *cubePlan) lo(i int) int { return i * cp.n / cp.qc }

// loB returns the first column of block i along b (loB(qb) = cols).
func (cp *cubePlan) loB(i int) int { return i * cp.cols / cp.qb }

// block returns the block along c, and a, that v lies in.
func (cp *cubePlan) block(v int) int { return ((v+1)*cp.qc - 1) / cp.n }

// nodes returns how many cube nodes the shape has; nodes past them idle.
func (cp *cubePlan) nodes() int { return cp.qa * cp.qb * cp.qc }

// multiplies reports whether node t computes a product: it is a cube
// node, and on a squaring one with a ≤ b.
func (cp *cubePlan) multiplies(t int) bool {
	sh := cp.share(t)
	return t < cp.nodes() && (cp.s != nil || sh.a <= sh.b)
}

// xSeg and dSeg index X[v, B_c] − K and Δ[v, B_b] in segs.
func (cp *cubePlan) xSeg(v, c int) int { return v*(cp.qc+cp.qb) + c }
func (cp *cubePlan) dSeg(v, b int) int { return v*(cp.qc+cp.qb) + cp.qc + b }

// xOff is the column offset the X-updates travel at: a Relaxation's
// segments of S are columns cols.. of a space whose first cols columns
// are Δ's, so no word of S reads as one of Δ.
func (cp *cubePlan) xOff() int {
	if cp.s == nil {
		return 0
	}
	return cp.cols
}

// share returns cube node t's share.
func (cp *cubePlan) share(t int) share {
	a, b, c := t/(cp.qb*cp.qc), t/cp.qc%cp.qb, t%cp.qc
	la, lb, lc := cp.lo(a), cp.loB(b), cp.lo(c)
	return share{t: t, a: a, b: b, la: la, lb: lb, lc: lc,
		ra: cp.lo(a+1) - la, rb: cp.loB(b+1) - lb, rc: cp.lo(c+1) - lc, diag: cp.s == nil && a == b && b == c}
}

// relaxPlan decides, once per Relaxation and from S alone, how its
// engine products run: it prices one full column of Δ at (n, 1, 1) and
// at (q, 1, q), q = ⌊√n⌋, in entries moved, and returns the plan of the
// shape that moves fewer. Row-pull sends Δ[k] to every off-diagonal
// neighbour of k: Σ_k deg(k) − 1, S's diagonal being One. The 2D
// product sends Δ[k] to every cube node (a, 0, block(k)) with
// S[B_a, k] ≠ Zero, and each cube node (a, 0, c) returns one partial
// row per row of S[B_a, B_c] with an entry. S is symmetric (the loops'
// precondition, checked before it is priced), so both 2D terms are
// Σ_u #{c : S[u, B_c] ≠ Zero}, and a cube node reads the columns of its
// block off S's rows. The choice is a static property of the operand.
func relaxPlan(s *Matrix) *cubePlan {
	q := 1
	for (q+1)*(q+1) <= s.N {
		q++
	}
	cp := &cubePlan{n: s.N, qa: q, qb: 1, qc: q, s: s, sAt: make([]int32, s.N*(q+1))}
	blocks := 0
	for u := 0; u < s.N; u++ {
		at, e := cp.sAt[u*(q+1):(u+1)*(q+1)], s.Rows[u]
		for c := range at {
			for lo := int32(cp.lo(c)); e < s.Rows[u+1] && s.Cols[e] < core.NodeID(lo); e++ {
			}
			if at[c] = e; c > 0 && e > at[c-1] {
				blocks++
			}
		}
	}
	if 2*blocks >= s.NNZ()-s.N {
		return rowPlan(s)
	}
	for _, v := range s.Vals {
		if v != s.Sr.One {
			cp.sRange.add(v)
		}
	}
	return cp
}

// sBlock returns S's entries in row u and block c.
func (cp *cubePlan) sBlock(u, c int) ([]core.NodeID, []int64) {
	lo, hi := cp.sAt[u*(cp.qc+1)+c], cp.sAt[u*(cp.qc+1)+c+1]
	return cp.s.Cols[lo:hi], cp.s.Vals[lo:hi]
}

// init sizes the plan for n nodes and B's cols columns: once per loop
// the link table, every sender's room, the nodes and the buffers whose
// size n alone fixes, and the selection bitsets whenever cols changes.
func (cp *cubePlan) init(n, cols int) {
	cp.cols = cols
	if cp.s == nil {
		q := cubeRoot(n)
		cp.qa, cp.qb, cp.qc = q, q, q
	}
	if rw := (cols + 63) / 64; len(cp.dsel) != n*rw {
		cp.dsel = make([]uint64, n*rw)
		if cp.s == nil {
			cp.sel = make([]uint64, n*rw)
		}
	}
	if cp.set != nil && cp.n == n {
		return
	}
	cp.n = n
	cp.nds, cp.set = make([]cubeNode, n), make([]engine.Node, n)
	for v := range cp.set {
		cp.set[v] = &cp.nds[v]
	}
	qa, qb, qc := cp.qa, cp.qb, cp.qc
	cp.starts, cp.ends = make([]int, n*(qc+qb)+1), make([]int, n*(qc+qb))
	cp.xsAt = make([]int, n+1)
	if cp.rows() {
		for v := 0; v < n; v++ {
			cp.xsAt[v+1] = cp.xsAt[v] + 1 + votes(v, n)
		}
		cp.xs = make([]transfer, cp.xsAt[n])
		return
	}
	cp.links, cp.first, cp.toAt = make([]link, 0, 2*n*qa*qb), make([]int, n+1), make([]int, n+1)
	cp.to = make([]core.NodeID, 0, n*qa*qb)
	add := func(t, x, d int) {
		cp.links = append(cp.links, link{int32(t), int32(x), int32(d)})
		if d >= 0 {
			cp.to = append(cp.to, core.NodeID(t))
		}
	}
	// needs reports whether cube node (a2, b, block(v)) multiplies by
	// Δ[v, B_b]: on a squaring every one with a2 ≤ b does; on a
	// Relaxation the ones whose S[B_a2, v] holds an entry, which owner v
	// reads off its own row of S.
	meets := make([]bool, qa)
	needs := func(a2, b int) bool { return cp.s == nil && a2 <= b || cp.s != nil && meets[a2] }
	for v := 0; v < n; v++ {
		a := cp.block(v)
		for a2 := 0; cp.s != nil && a2 < qa; a2++ {
			meets[a2] = cp.sAt[v*(qc+1)+a2+1] > cp.sAt[v*(qc+1)+a2]
		}
		for b := 0; b < qb; b++ {
			for c := 0; c < qc && (cp.s != nil || b >= a); c++ {
				d := -1
				if c == a && needs(a, b) && (cp.s != nil || b != a) {
					d = cp.dSeg(v, b)
				}
				add((a*qb+b)*qc+c, cp.xSeg(v, c), d)
			}
		}
		for b := 0; b < qb; b++ {
			for a2 := 0; a2 < qa; a2++ {
				if a2 != a && needs(a2, b) {
					add((a2*qb+b)*qc+a, -1, cp.dSeg(v, b))
				}
			}
		}
		cp.first[v+1], cp.toAt[v+1] = len(cp.links), len(cp.to)
	}
	for v := 0; v < n; v++ {
		rows := 0
		if sh := cp.share(v); cp.multiplies(v) {
			rows = sh.ra + sh.rb
		}
		// Phase 1 is out before the partial rows and vote words queue.
		cp.xsAt[v+1] = cp.xsAt[v] + max(2*(cp.first[v+1]-cp.first[v]), rows+votes(v, n))
	}
	cp.xs = make([]transfer, cp.xsAt[n])
	cp.in, cp.at = make([]int, cp.nodes()), make([]int, cp.nodes()+1)
}

// formats sweeps B, sizing the plan for it (init), and returns a pass's
// two wire formats: wf, of the segments of B and of the left operand
// that owners send in phase 1, and pwf, of the words each node folds —
// at (n, 1, 1) the rows of B it receives, so wf itself; at any other
// shape the partial rows, whose range covers every product of one of
// the left operand's values (X's, which the sweep spans, or S's, which
// ship at xOff only while not held) and one of Δ's. At (n, 1, 1) an
// error says no wire word fits B's values; at any other shape both are
// nil, and err too, when no wire word fits one, and the product runs at
// (n, 1, 1) (newPass).
func (cp *cubePlan) formats(b, prev *Dense) (wf, pwf *wireFormat, err error) {
	k, sr := b.K, b.Sr
	cp.init(b.N, k)
	var rg valueRange
	if cp.s != nil {
		rg = sweep(b, prev, cp.dsel, nil) // it sends no segment of B but Δ's
	} else {
		rg = sweep(b, prev, cp.sel, cp.dsel)
	}
	if cp.rows() {
		wf, err = rg.format(k, sr)
		return wf, wf, err
	}
	left, ship, cols := rg, rg, k
	if cp.s != nil {
		left = cp.sRange
		if !cp.held {
			ship, cols = rg.union(cp.sRange), k+cp.n
		}
	}
	prg, ok := left.times(rg, sr)
	wf, err1 := ship.format(cols, sr)
	pwf, err2 := prg.format(k, sr)
	if !ok || err1 != nil || err2 != nil {
		return nil, nil, nil
	}
	return wf, pwf, nil
}

// pack packs every owner's segments in the format p.wf — X from the
// sweep's bitset sel, S off S unless held, Δ from dsel — and sizes phase
// 1 off the plan's links. While a squaring chain's blocks are held the
// X-updates are the Δ segments and each owner packs q segments, not 2q;
// at (n, 1, 1) each owner packs one, its row of Δ, and phase 1 is as
// wide as the widest.
func (p *Pass) pack() {
	cp, b, wf := p.cubePlan, p.b, p.wf
	n, qc, rw := cp.n, cp.qc, (b.K+63)/64
	var srow []int64  // S's row, at its entries, while its blocks ship
	var sset []uint64 // and its entries
	if cp.s != nil && !cp.held {
		srow, sset = make([]int64, n), make([]uint64, (n+63)/64)
	}
	slab := cp.slab[:0]
	for v := 0; v < n; v++ {
		row := b.Row(core.NodeID(v))
		if srow != nil {
			// packSet reads srow only where sset has a bit.
			clear(sset)
			cols, vals := cp.s.Row(core.NodeID(v))
			for i, j := range cols {
				srow[j], sset[j/64] = vals[i], sset[j/64]|1<<(j%64)
			}
		}
		for c := 0; c < qc; c++ {
			switch {
			case cp.held:
			case srow != nil:
				slab = wf.packSet(slab, sset, srow, cp.lo(c), cp.lo(c+1), cp.xOff())
			default:
				slab = wf.packSet(slab, cp.sel[v*rw:(v+1)*rw], row, cp.lo(c), cp.lo(c+1), 0)
			}
			cp.ends[cp.xSeg(v, c)] = len(slab)
		}
		for bb := 0; bb < cp.qb; bb++ {
			slab = wf.packSet(slab, cp.dsel[v*rw:(v+1)*rw], row, cp.loB(bb), cp.loB(bb+1), 0)
			cp.ends[cp.dSeg(v, bb)] = len(slab)
		}
	}
	cp.slab = slab
	cp.starts[0] = 0
	copy(cp.starts[1:], cp.ends)
	if cp.rows() {
		for v := 0; v < n; v++ {
			p.wide = max(p.wide, len(p.seg(int32(cp.dSeg(v, 0)))))
		}
		return
	}
	for v := 0; cp.held && cp.s == nil && v < n; v++ {
		for c := 0; c < qc; c++ {
			x, d := cp.xSeg(v, c), cp.dSeg(v, c)
			cp.starts[x], cp.ends[x] = cp.starts[d], cp.ends[d]
		}
	}
	clear(cp.in)
	for v := 0; v < n; v++ {
		for _, l := range cp.links[cp.first[v]:cp.first[v+1]] {
			words := len(p.seg(l.x)) + len(p.seg(l.d))
			cp.in[l.t] += words
			if int(l.t) != v {
				p.wide = max(p.wide, words)
			}
		}
	}
	for t, words := range cp.in {
		cp.at[t+1] = cp.at[t] + words
	}
	total := cp.at[len(cp.in)]
	cp.got = slices.Grow(cp.got[:0], total)[:total]
	cp.from = slices.Grow(cp.from[:0], total)[:total]
}

// heldVals returns, in s.x, the columns of K_t, the cube node sh's
// block of X, that the live rows of its Δ block meet, ra x len(live)
// and ready for its X-updates: Zero when they are whole segments of X,
// prev's block when they are Δ.
func (nd *cubeNode) heldVals(s *cubeScratch, sh share) []int64 {
	cb, nl := nd.cb, len(s.live)
	x := fill(&s.x, sh.ra*nl, cb.sr.Zero)
	for i := 0; cb.held && i < sh.ra; i++ {
		row := cb.prev.Row(core.NodeID(sh.la + i))[sh.lc:]
		for l, k := range s.live {
			x[i*nl+l] = row[k]
		}
	}
	return x
}

// relaxProduct is the local product of a Relaxation's cube node,
// S[B_a, B_c] ⊗ Δ[B_c], with its block of S read off S: what it
// received in the product that shipped the blocks, and has held since.
// It folds S[u, k] ⊗ Δ[k] into row u of prod for each live row k of its
// Δ block, reading the column S[B_a, k] off S's row k (S is symmetric,
// relaxPlan), so its work follows the live rows alone.
func (nd *cubeNode) relaxProduct(s *cubeScratch, sh share, prod []int64, hit []uint64) {
	cb, rb, la := nd.cb, sh.rb, sh.la
	zero, kind, a := cb.sr.Zero, cb.sr.Kind(), cb.block(la)
	for j := range prod {
		prod[j] = zero
	}
	for l, k := range s.live {
		cols, vals := cb.sBlock(sh.lc+k, a)
		vals = vals[:len(cols)]
		for j, d := range s.d[l*rb : (l+1)*rb] {
			out := prod[j:]
			switch {
			case d == zero:
			case kind == core.KindMinPlus: // a value of S is below InfWeight
				for e, u := range cols {
					i := (int(u) - la) * rb
					out[i] = min(out[i], vals[e]+d)
				}
			case kind == core.KindMaxMin:
				for e, u := range cols {
					i := (int(u) - la) * rb
					out[i] = max(out[i], min(vals[e], d))
				}
			default:
				for e, u := range cols {
					i := (int(u) - la) * rb
					out[i] = cb.sr.Add(out[i], cb.sr.Mul(vals[e], d))
				}
			}
		}
	}
	for i := range sh.ra {
		hit[i/64] |= 1 << (i % 64) // emit skips the rows left Zero
	}
}

// heldBits is heldVals over (or,and), all of K_t as bitset rows of xw
// words in x; a Relaxation's block, as relaxProduct reads it, off S. On
// a squaring prev's non-Zero entries are X's less Δ's (X ⊇ prev), so it
// reads them off the selection bitsets, a word at a time.
func (p *Pass) heldBits(x []uint64, sh share, xw int) {
	clear(x)
	for i := 0; p.s != nil && i < sh.ra; i++ {
		cols, _ := p.sBlock(sh.la+i, p.block(sh.lc))
		for _, j := range cols {
			k := int(j) - sh.lc
			x[i*xw+k/64] |= 1 << (k % 64)
		}
	}
	if !p.held || p.s != nil {
		return
	}
	rw := (p.n + 63) / 64
	for i := range len(x) / xw {
		xs, ds := p.sel[(sh.la+i)*rw:][:rw], p.dsel[(sh.la+i)*rw:][:rw]
		for w := range xw {
			j, k := sh.lc+64*w, min(64, sh.rc-64*w)
			x[i*xw+w] = bitsAt(xs, j, k) &^ bitsAt(ds, j, k)
		}
	}
}

// isUpdate reports whether the phase-1 word w from src, received by the
// cube node sh, is one of its X-updates: its sender lies in B_a and its
// first column, less xOff, in B_c. Any other word is a Δ segment.
func (p *Pass) isUpdate(w uint64, src int, sh *share) bool {
	j := p.wf.firstCol(w) - p.xOff()
	return src >= sh.la && src < sh.la+sh.ra && j >= sh.lc && j < sh.lc+sh.rc
}

// seg returns segment i, or nothing for i = -1.
func (p *Pass) seg(i int32) []uint64 {
	if i < 0 {
		return nil
	}
	return p.slab[p.starts[i]:p.ends[i]:p.ends[i]]
}

// Round runs one round of the node's share of the product and of its
// vote: at (n, 1, 1) it folds the rows that arrive; at any other shape
// it keeps the phase-1 words until F1, multiplies, and folds the partial
// rows that arrive after.
func (nd *cubeNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	id, cb := int(ctx.ID()), nd.cb
	final := core.Round(cb.wide) // F1
	if r == 0 {
		nd.ran = true
		nd.phase1(core.NodeID(id))
	}
	folded, heard := false, false
	if !cb.rows() && r <= final {
		for _, m := range inbox {
			nd.got, nd.from = append(nd.got, m.Payload), append(nd.from, m.Src)
		}
		if r == final {
			if id < cb.nodes() {
				folded = nd.multiply(cb.share(id))
			}
			nd.got, nd.from = nil, nil
		}
	} else {
		var err error
		if folded, heard, err = nd.fold(ctx.ID(), inbox, cb.rows()); err != nil {
			return err
		}
	}
	nd.tally(ctx, r, heard, folded)
	return nd.out.send(ctx, r)
}

// phase1 queues owner id's phase-1 transfers in its sender, each link's
// Δ segment behind its X-update, and keeps the segments it sends
// itself. At (n, 1, 1) its own row is its own term, which it folds at
// once where its accumulator starts at Zero.
func (nd *cubeNode) phase1(id core.NodeID) {
	cb, out := nd.cb, &nd.out
	if int(id) < cb.nodes() && !cb.rows() {
		lo, hi := cb.at[id], cb.at[id+1]
		nd.got, nd.from = cb.got[lo:lo:hi], cb.from[lo:lo:hi]
	}
	keep := func(seg []uint64) {
		for _, w := range seg {
			nd.got, nd.from = append(nd.got, w), append(nd.from, id)
		}
	}
	if cb.s != nil && cb.held {
		// The owner's Δ segment is all it sends: one word a round to every
		// node that takes it, at (n, 1, 1) the columns of its own row of A.
		d, to := cb.seg(int32(cb.dSeg(int(id), 0))), nd.aCols
		if !cb.rows() {
			to = cb.to[cb.toAt[id]:cb.toAt[id+1]]
			if slices.Contains(to, id) {
				keep(d)
			}
		} else if i, ok := slices.BinarySearch(to, id); ok && nd.fromZero {
			for _, w := range d {
				nd.accumulate(nd.aVals[i], w)
			}
		}
		out.to = to
		out.add(multicast, d, 0)
		return
	}
	for _, l := range cb.links[cb.first[id]:cb.first[id+1]] {
		x, d := cb.seg(l.x), cb.seg(l.d)
		if t := core.NodeID(l.t); t != id {
			out.add(t, x, 0)
			out.add(t, d, core.Round(len(x)))
			continue
		}
		keep(x)
		keep(d)
	}
}

// multiply is cube node sh's local product in round F1: it decodes the
// Δ segments it holds into a scratch block and its X-updates into K_t,
// folds the product, and queues each non-empty partial row for its
// owner — its rows and, when a < b, its columns — folding its own row
// in place. A node that received no Δ (every node with a > b) has no
// partial row and stops there, without building K_t: what its X-updates
// would make of it is the block of the next squaring's prev, which that
// squaring reads. It reports whether it folded into its own row.
func (nd *cubeNode) multiply(sh share) bool {
	cb := nd.cb
	var s *cubeScratch
	cb.mu.Lock()
	if k := len(cb.free); k > 0 {
		s, cb.free = cb.free[k-1], cb.free[:k-1]
	} else {
		s = &cubeScratch{}
	}
	cb.mu.Unlock()
	defer func() {
		cb.mu.Lock()
		cb.free = append(cb.free, s)
		cb.mu.Unlock()
	}()
	nd.buf = nd.buf[:0]
	if cb.wf.loop == core.KindBoolOrAnd {
		return nd.multiplyBool(s, sh)
	}
	return nd.multiplyVals(s, sh)
}

// multiplyVals is multiply over a semiring of values, in blocks only as
// large as the rows of its Δ block that a Δ word reached (live): a node
// of a product that confirms a fixpoint, sent a few words, does about
// that much.
func (nd *cubeNode) multiplyVals(s *cubeScratch, sh share) bool {
	cb := nd.cb
	zero := cb.sr.Zero
	rb := sh.rb
	held := cb.s != nil && cb.held // no word is an X-update
	// One pass over the words: each Δ word lands in its row of the
	// block, which a row's first word appends.
	slot := slices.Grow(s.slot[:0], sh.rc)[:sh.rc]
	for k := range slot {
		slot[k] = -1
	}
	live, d, cnt, updates := s.live[:0], s.d[:0], s.db.cnt[:0], false
	for i, w := range nd.got {
		src := int(nd.from[i])
		if !held && !sh.diag && cb.isUpdate(w, src, &sh) {
			updates = true
			continue
		}
		l := int(slot[src-sh.lc])
		if l < 0 {
			l, slot[src-sh.lc], live, cnt = len(live), int32(len(live)), append(live, src-sh.lc), append(cnt, 0)
			for range rb {
				d = append(d, zero)
			}
		}
		cnt[l] += cb.wf.decode(w, d[l*rb:][:rb], sh.lb)
	}
	db := &s.db
	s.slot, s.live, s.d, db.vals, db.rb, db.cnt = slot, live, d, d, rb, cnt
	nl := len(live)
	if nl == 0 {
		return false
	}
	hit := slices.Grow(s.hit[:0], (sh.ra+63)/64)[:(sh.ra+63)/64]
	clear(hit)
	prod := slices.Grow(s.c[:0], sh.ra*rb)[:sh.ra*rb]
	s.hit, s.c = hit, prod
	if cb.s != nil {
		nd.relaxProduct(s, sh, prod, hit)
	} else {
		x := nd.heldVals(s, sh)
		for i, w := range nd.got {
			if src := int(nd.from[i]); (updates || sh.diag) && cb.isUpdate(w, src, &sh) {
				cb.wf.decodeAt(w, x[(src-sh.la)*nl:][:nl], slot, sh.lc)
			}
		}
		db.index(zero)
		blockProduct(&cb.sr, prod, x, db, sh.ra, nl, hit)
	}
	words := (max(sh.ra, rb) + 63) / 64
	set := slices.Grow(s.set[:0], words)[:words]
	s.set = set
	own := nd.emit(sh.t, sh.la, sh.ra, hit, func(i int, dst []uint64) []uint64 {
		row := prod[i*rb : (i+1)*rb]
		if rb <= nd.wf.sparsePer {
			return nd.wf.packShort(dst, row, zero, sh.lb)
		}
		nonZeroSet(set[:(rb+63)/64], row, zero)
		return nd.wf.packSet(dst, set, row, 0, rb, sh.lb)
	})
	if cb.s != nil || sh.a == sh.b {
		return own
	}
	col := slices.Grow(s.col[:0], sh.ra)[:sh.ra]
	s.col = col
	return nd.emit(sh.t, sh.lb, rb, nil, func(j int, dst []uint64) []uint64 {
		for i := range col {
			col[i] = zero
			if hit[i/64]>>(i%64)&1 != 0 {
				col[i] = prod[i*rb+j]
			}
		}
		nonZeroSet(set[:(sh.ra+63)/64], col, zero)
		return nd.wf.packSet(dst, set, col, 0, sh.ra, sh.la)
	}) || own
}

// emit stages each non-empty partial row i of cube node t's product for
// the owners lo..lo+cnt-1 — only those whose bit is set in keep, when
// keep is not nil — as pack(i, dst) appends it packed in the partial
// rows' format: folded in place when its owner is t itself, appended to
// the node's buf and queued in its sender from round F1 otherwise. A
// queued row keeps its words where it was packed, even when a later
// append moves buf: nothing writes to them again. It reports whether it
// folded into t's own row.
func (nd *cubeNode) emit(t, lo, cnt int, keep []uint64, pack func(i int, dst []uint64) []uint64) bool {
	own := false
	// A local, not nd's field: appending through a heap pointer pays the
	// GC's write barrier on every word.
	slab := nd.buf
	for i := 0; i < cnt; i++ {
		if keep != nil && keep[i/64]>>(i%64)&1 == 0 {
			continue
		}
		at := len(slab)
		slab = pack(i, slab)
		switch {
		case len(slab) == at:
		case lo+i == t:
			for _, w := range slab[at:] {
				nd.accumulate(nd.sr.One, w)
			}
			slab, own = slab[:at], true
		default:
			nd.out.add(core.NodeID(lo+i), slab[at:], core.Round(nd.cb.wide))
		}
	}
	nd.buf = slab
	return own
}

// multiplyBool is multiply over (or,and) in the 1-bit-field format, where
// every value is One and a row is a set of columns: K_t, the Δ block and
// the product are bitsets, a positional word decodes as one shifted
// bitmap, each x[i][k] = One ORs Δ's row k into row i a machine word at a
// time, and each partial row is packed straight from its bitset — a
// column's from the product's transpose.
func (nd *cubeNode) multiplyBool(s *cubeScratch, sh share) bool {
	cb, wf := nd.cb, nd.cb.wf
	ra, rb, rc := sh.ra, sh.rb, sh.rc
	xw, dw, aw := (rc+63)/64, (rb+63)/64, (ra+63)/64
	// d is the Δ block, x K_t, prod the product, cols its transpose, and
	// bit k of live says Δ's row k is not empty, so a row of x meets only
	// those.
	var d, x, prod, cols, live []uint64
	for i, w := range nd.got {
		src := int(nd.from[i])
		if cb.isUpdate(w, src, &sh) && !sh.diag {
			continue
		}
		if d == nil {
			size := rc*dw + ra*xw + ra*dw + rb*aw + xw
			s.bits = slices.Grow(s.bits[:0], size)[:size]
			rest := s.bits
			d, rest = rest[:rc*dw], rest[rc*dw:]
			x, rest = rest[:ra*xw], rest[ra*xw:]
			prod, rest = rest[:ra*dw], rest[ra*dw:]
			cols, live = rest[:rb*aw], rest[rb*aw:]
			clear(d)
			clear(live)
		}
		k := src - sh.lc
		wf.decodeBits(w, d[k*dw:][:dw], sh.lb)
		live[k/64] |= 1 << (k % 64)
	}
	if d == nil {
		return false
	}
	cb.heldBits(x, sh, xw)
	for i, w := range nd.got {
		if src := int(nd.from[i]); cb.s == nil && cb.isUpdate(w, src, &sh) {
			wf.decodeBits(w, x[(src-sh.la)*xw:][:xw], sh.lc)
		}
	}
	clear(prod)
	for i := range ra {
		acc := prod[i*dw : (i+1)*dw]
		for kw, m := range x[i*xw : (i+1)*xw] {
			for m &= live[kw]; m != 0; m &= m - 1 {
				k := kw*64 + bits.TrailingZeros64(m)
				for w, b := range d[k*dw : (k+1)*dw] {
					acc[w] |= b
				}
			}
		}
	}
	own := nd.emit(sh.t, sh.la, ra, nil, func(i int, dst []uint64) []uint64 {
		return nd.wf.packSet(dst, prod[i*dw:(i+1)*dw], nil, 0, rb, sh.lb)
	})
	if cb.s != nil || sh.a == sh.b {
		return own
	}
	clear(cols)
	for i := range ra {
		for jw, m := range prod[i*dw : (i+1)*dw] {
			for ; m != 0; m &= m - 1 {
				j := jw*64 + bits.TrailingZeros64(m)
				cols[j*aw+i/64] |= 1 << (i % 64)
			}
		}
	}
	return nd.emit(sh.t, sh.lb, rb, nil, func(j int, dst []uint64) []uint64 {
		return nd.wf.packSet(dst, cols[j*aw:(j+1)*aw], nil, 0, ra, sh.la)
	}) || own
}

// fill returns (*buf)[:size] filled with v, growing *buf as needed.
func fill(buf *[]int64, size int, v int64) []int64 {
	*buf = slices.Grow((*buf)[:0], size)[:size]
	for i := range *buf {
		(*buf)[i] = v
	}
	return *buf
}

// deltaBlock is the Δ block of one local product, row-major over rb
// columns, with its rows sorted by how they are best walked: full rows
// (more than 1/fullShare of them non-Zero) densely, four at a time;
// part rows through the list of their non-Zero columns,
// nz[ends[i]:ends[i+1]] for part[i]. cnt[l] is how many entries row l
// holds, as decode counted them.
type deltaBlock struct {
	vals       []int64
	rb         int
	cnt        []int
	full, part []int
	live       []int // blockProduct's scratch: the full rows one row of x meets
	nz         []int32
	ends       []int
}

// fullShare sets which Δ rows blockProduct walks densely: those with
// more than 1/fullShare of their entries non-Zero. A dense walk reads
// every column of the row; a part walk reads only the non-Zero ones,
// each through a column index.
const fullShare = 4

// index sorts the block's rows, reusing the slices it already holds.
func (db *deltaBlock) index(zero int64) {
	// Locals, not db's fields: appending through a heap pointer pays the
	// GC's write barrier on every entry.
	full, part, nz, ends := db.full[:0], db.part[:0], db.nz[:0], append(db.ends[:0], 0)
	for l, cnt := range db.cnt {
		switch {
		case fullShare*cnt > db.rb:
			full = append(full, l)
		case cnt > 0:
			for j, v := range db.row(l) {
				if v != zero {
					nz = append(nz, int32(j))
				}
			}
			part, ends = append(part, l), append(ends, len(nz))
		}
	}
	db.full, db.part, db.nz, db.ends = full, part, nz, ends
}

// row returns row l of the block.
func (db *deltaBlock) row(l int) []int64 { return db.vals[l*db.rb : (l+1)*db.rb] }

// blockProduct folds prod[i][j] = Add(prod[i][j], Mul(x[i][k], Δ[k][j]))
// for the row-major blocks x (ra x rc) and prod (ra x rb), in loops
// specialised per semiring kind as accumulate's are. It writes only the
// rows of prod that have a term, from Zero, and sets their bits in hit.
func blockProduct(sr *core.Semiring, prod, x []int64, db *deltaBlock, ra, rc int, hit []uint64) {
	zero, kind, rb := sr.Zero, sr.Kind(), db.rb
	live := db.live
	for i := 0; i < ra; i++ {
		out, xr := prod[i*rb:(i+1)*rb], x[i*rc:(i+1)*rc]
		// The full rows this row of x has a term for.
		live = live[:0]
		for _, k := range db.full {
			if xr[k] != zero {
				live = append(live, k)
			}
		}
		if len(live) == 0 && !slices.ContainsFunc(db.part, func(k int) bool { return xr[k] != zero }) {
			continue
		}
		hit[i/64] |= 1 << (i % 64)
		for j := range out {
			out[j] = zero
		}
		full := live
		if kind == core.KindMinPlus || kind == core.KindMaxMin {
			for ; len(full) >= 4; full = full[4:] {
				k0, k1, k2, k3 := full[0], full[1], full[2], full[3]
				r0, r1, r2, r3 := db.row(k0), db.row(k1), db.row(k2), db.row(k3)
				if kind == core.KindMinPlus {
					minPlus4(out, r0, r1, r2, r3, xr[k0], xr[k1], xr[k2], xr[k3])
				} else {
					maxMin4(out, r0, r1, r2, r3, xr[k0], xr[k1], xr[k2], xr[k3])
				}
			}
		}
		for _, k := range full {
			foldRow(sr, out, db.row(k), nil, xr[k])
		}
		for p, k := range db.part {
			if xr[k] != zero {
				foldRow(sr, out, db.row(k), db.nz[db.ends[p]:db.ends[p+1]], xr[k])
			}
		}
	}
	db.live = live
}

// minPlus4 folds four (min,+) terms into each entry of out, one per row
// r0..r3 with the factors x0..x3: one load and one store of out per
// four terms. No sum can overflow (every value is at most InfWeight),
// and a sum at or past InfWeight never lowers out below it.
func minPlus4(out, r0, r1, r2, r3 []int64, x0, x1, x2, x3 int64) {
	r1, r2, r3, out = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)], out[:len(r0)]
	for j, d := range r0 {
		out[j] = min(out[j], x0+d, x1+r1[j], x2+r2[j], x3+r3[j])
	}
}

// maxMin4 is minPlus4 over (max,min).
func maxMin4(out, r0, r1, r2, r3 []int64, x0, x1, x2, x3 int64) {
	r1, r2, r3, out = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)], out[:len(r0)]
	for j, d := range r0 {
		out[j] = max(out[j], min(x0, d), min(x1, r1[j]), min(x2, r2[j]), min(x3, r3[j]))
	}
}

// foldRow folds the terms Mul(xv, row[j]) into out, for an xv that is
// not Zero: over every column of row when cols is nil, and over the
// columns cols, row's non-Zero ones, otherwise.
func foldRow(sr *core.Semiring, out, row []int64, cols []int32, xv int64) {
	out = out[:len(row)]
	switch k := sr.Kind(); {
	case k == core.KindMinPlus && xv >= core.InfWeight: // Mul saturates: no term
	case k == core.KindMinPlus && cols == nil:
		for j, d := range row {
			out[j] = min(out[j], xv+d)
		}
	case k == core.KindMinPlus:
		for _, j := range cols {
			out[j] = min(out[j], xv+row[j])
		}
	case k == core.KindMaxMin && cols == nil:
		for j, d := range row {
			out[j] = max(out[j], min(xv, d))
		}
	case k == core.KindMaxMin:
		for _, j := range cols {
			out[j] = max(out[j], min(xv, row[j]))
		}
	case cols == nil:
		for j, d := range row {
			out[j] = sr.Add(out[j], sr.Mul(xv, d))
		}
	default:
		for _, j := range cols {
			out[j] = sr.Add(out[j], sr.Mul(xv, row[j]))
		}
	}
}
