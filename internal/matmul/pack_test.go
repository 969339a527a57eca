package matmul

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// packRow appends one B-row — its non-Zero entries as parallel,
// column-sorted slices — to dst in whichever encoding needs fewer
// words (sparse on a tie). It is the staging packer packSet replaced,
// kept as the oracle packSet is checked against (checkPackSet) and the
// traffic models pack with.
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
	// The shift is masked with 63, a no-op (a field ends by bit 62), so
	// the compiler drops its out-of-range-shift test per field.
	idxBits, width := wf.idxBits, wf.width
	for i := 0; i < len(cols); {
		start := int(cols[i])
		w := posFlag | uint64(start)
		for ; i < len(cols) && int(cols[i]) < start+wf.posPer; i++ {
			w |= wf.field(vals[i]) << ((idxBits + uint(int(cols[i])-start)*width) & 63)
		}
		dst = append(dst, w)
	}
	return dst
}

// newWireFormat is the wire format a pass would derive for a B operand
// with the given column count that sends every one of vals (Zero entries
// are exempt: they are never transmitted).
func newWireFormat(cols int, vals []int64, sr core.Semiring) (*wireFormat, error) {
	var rg valueRange
	for _, v := range vals {
		if v != sr.Zero && v != sr.One {
			rg.add(v)
		}
	}
	return rg.format(cols, sr)
}

// fuzzRow builds one B-row from fuzz input. Column j takes its value
// from data[j] (columns past len(data) are Zero): the low two bits
// choose Zero / One / min / a point of [min, min+span], the high six
// place that point, 63 landing on the maximum. Values are clamped into
// the semiring's domain; the boolean semiring has no value but One.
func fuzzRow(sr core.Semiring, cols int, lo, span uint64, data []byte) (row []int64, cs []core.NodeID, vs []int64) {
	limit := uint64(core.InfWeight) // (min,+): finite weights in [0, InfWeight)
	if sr.Name == "maxmin" {
		limit = uint64(core.InfWidth) // widths in [1, InfWidth)
	}
	lo = 1 + lo%(limit-1)
	span %= limit - lo
	row = NewDense(1, cols, sr).Vals
	for j := 0; j < cols && j < len(data); j++ {
		b := data[j]
		switch {
		case b&3 == 0:
			continue
		case b&3 == 1 || sr.Name == "booland":
			row[j] = sr.One
		case b&3 == 2:
			row[j] = int64(lo)
		default:
			hi, rem := bits.Mul64(span, uint64(b>>2))
			q, _ := bits.Div64(hi, rem, 63)
			row[j] = int64(lo + q)
		}
		cs = append(cs, core.NodeID(j))
		vs = append(vs, row[j])
	}
	return row, cs, vs
}

// usedSlots counts the non-empty fields of one word straight from the
// documented layout, independently of the production decoder.
func usedSlots(wf *wireFormat, w uint64) int {
	step := wf.idxBits + wf.width
	if w&posFlag != 0 {
		w = (w &^ posFlag) >> wf.idxBits
		step = wf.width
	}
	n := 0
	for ; w != 0; w >>= step {
		if w&wf.fMask != 0 {
			n++
		}
	}
	return n
}

// FuzzPackRow: for any row, both encodings decode back to exactly the
// row's non-Zero entries, the sparse encoding is full-word tight, and
// packRow picks the shorter of the two; packSet packs every sub-range of
// it word for word as packRow does. The format is accepted exactly when
// the value range fits beside the column index.
func FuzzPackRow(f *testing.F) {
	// Data bytes (0 is an absent column): O the semiring One, L the
	// minimum, H the maximum, M a value in between.
	const O, L, M, H = 1, 2, 0x83, 0xff
	const minplus, booland, maxmin = 0, 1, 2 // core.AllSemirings order
	rep := func(n int, pattern ...byte) []byte { return bytes.Repeat(pattern, n)[:n] }
	at := func(n int, b byte, js ...int) []byte {
		d := make([]byte, n)
		for _, j := range js {
			d[j] = b
		}
		return d
	}
	f.Add(uint16(159), uint8(booland), uint64(0), uint64(0), rep(160, O))     // full boolean row: 3 positional words
	f.Add(uint16(0), uint8(minplus), uint64(0), uint64(0), []byte{O})         // n=1 / K=1: zero index bits
	f.Add(uint16(0), uint8(minplus), uint64(7), uint64(1)<<60, []byte{H})     // K=1, one large value
	f.Add(uint16(999), uint8(minplus), uint64(5), uint64(77), rep(1000, L))   // all-equal values
	f.Add(uint16(63), uint8(maxmin), uint64(3), uint64(90), at(64, H, 0))     // column 0 only
	f.Add(uint16(63), uint8(maxmin), uint64(3), uint64(90), at(64, L, 63))    // last column only
	f.Add(uint16(255), uint8(minplus), uint64(1), uint64(4093), rep(9, L, H)) // 12-bit fields: 9 entries = 3 full sparse words
	f.Add(uint16(255), uint8(minplus), uint64(1), uint64(4093), rep(10, L, H, M))
	f.Add(uint16(255), uint8(minplus), uint64(1), uint64(4093), rep(256, L, H, M, O)[:220]) // 4 columns per positional word
	f.Add(uint16(255), uint8(booland), uint64(0), uint64(0), at(256, O, 0, 100, 255))       // positional chunks with one set slot
	f.Add(uint16(511), uint8(minplus), uint64(1), uint64(1)<<53, rep(2, L, H))              // range fills the 54-bit field exactly
	f.Add(uint16(511), uint8(minplus), uint64(1), uint64(1)<<55, rep(2, L, H))              // range too wide: rejected
	f.Add(uint16(299), uint8(maxmin), uint64(1), uint64(0), rep(150, O))                    // InfWidth diagonal-style Ones
	f.Add(uint16(39), uint8(minplus), uint64(0), uint64(12), []byte{})                      // empty row

	// Boolean rows for the bitset packer's sub-ranges (checkPackBits).
	f.Add(uint16(159), uint8(booland), uint64(0), uint64(0), at(160, O, 3, 62, 63, 64, 65, 127, 128)) // ≤ sparsePer set: the sparse tie, across 64-bit boundaries
	f.Add(uint16(199), uint8(booland), uint64(0), uint64(0), rep(200, O, 0, 0, O, 0))                 // runs of positional words straddling each boundary

	f.Fuzz(func(t *testing.T, ncols uint16, srSel uint8, lo, span uint64, data []byte) {
		srs := core.AllSemirings()
		sr := srs[int(srSel)%len(srs)]
		cols := 1 + int(ncols)%2048
		row, cs, vs := fuzzRow(sr, cols, lo, span, data)

		var mn, mx int64
		ranged := false
		for _, v := range vs {
			if v == sr.One {
				continue
			}
			if !ranged || v < mn {
				mn = v
			}
			if !ranged || v > mx {
				mx = v
			}
			ranged = true
		}
		width := 1
		if ranged {
			width = bits.Len64(uint64(mx-mn) + 2)
		}
		wf, err := newWireFormat(cols, row, sr)
		if fits := core.Log2Ceil(cols)+width <= 63; (err == nil) != fits {
			t.Fatalf("cols=%d values [%d,%d]: err=%v, want accepted=%v", cols, mn, mx, err, fits)
		}
		if err != nil {
			return
		}

		sparse := wf.packSparse(nil, cs, vs)
		pos := wf.packPositional(nil, cs, vs)
		if want := (len(cs) + wf.sparsePer - 1) / wf.sparsePer; len(sparse) != want {
			t.Fatalf("sparse: %d words for %d entries at %d per word, want %d", len(sparse), len(cs), wf.sparsePer, want)
		}
		for name, words := range map[string][]uint64{"sparse": sparse, "positional": pos} {
			slots := 0
			for _, w := range words {
				if (w&posFlag != 0) != (name == "positional") {
					t.Fatalf("%s word %#x carries the wrong encoding flag", name, w)
				}
				slots += usedSlots(wf, w)
			}
			if slots != len(cs) {
				t.Fatalf("%s: %d occupied slots for %d entries", name, slots, len(cs))
			}
			for j, got := range decodeRow(t, wf, sr, cols, words) {
				if got != row[j] {
					t.Fatalf("%s (%s, cols=%d, %d entries): column %d decodes to %d, want %d",
						name, sr.Name, cols, len(cs), j, got, row[j])
				}
			}
		}
		want := sparse
		if len(pos) < len(sparse) {
			want = pos
		}
		got := wf.packRow(nil, cs, vs)
		if len(got) != len(want) {
			t.Fatalf("packRow used %d words; sparse needs %d, positional %d", len(got), len(sparse), len(pos))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("packRow word %d = %#x, want %#x", i, got[i], want[i])
			}
		}
		checkPackSet(t, wf, row, cs, vs, sr.Zero)
	})
}

// checkPackSet: for the row whose non-Zero columns are cs, packSet over
// every sub-range lo..hi — from the row's bitset and values as they
// stand, and from the bitset and values of the range alone placed at
// column lo, as a cube node's partial row is — returns exactly packRow's
// words for the same entries. In the 1-bit format it must not read the
// values, so it also runs with none. Rows of up to 130 columns try every
// range; wider ones every range whose ends lie within one column of a
// 64-bit boundary, or at either end of the row. A range of at most
// sparsePer columns also packs from its dense values alone (packShort),
// whose non-entries are zero.
func checkPackSet(t *testing.T, wf *wireFormat, row []int64, cs []core.NodeID, vs []int64, zero int64) {
	cols := len(row)
	set := make([]uint64, (cols+63)/64)
	for _, j := range cs {
		set[j/64] |= 1 << (j % 64)
	}
	var ends []int
	for j := 0; j <= cols; j++ {
		if cols <= 130 || j == cols || (j+1)%64 <= 2 {
			ends = append(ends, j)
		}
	}
	var want, got []uint64
	for _, lo := range ends {
		for _, hi := range ends {
			if hi < lo {
				continue
			}
			i := 0
			for i < len(cs) && int(cs[i]) < lo {
				i++
			}
			k := i
			for k < len(cs) && int(cs[k]) < hi {
				k++
			}
			want = wf.packRow(want[:0], cs[i:k], vs[i:k])
			shifted := make([]uint64, (hi-lo+63)/64)
			for _, j := range cs[i:k] {
				shifted[(int(j)-lo)/64] |= 1 << ((int(j) - lo) % 64)
			}
			packs := map[string]func([]uint64) []uint64{
				"in place": func(dst []uint64) []uint64 { return wf.packSet(dst, set, row, lo, hi, 0) },
				"shifted":  func(dst []uint64) []uint64 { return wf.packSet(dst, shifted, row[lo:hi], 0, hi-lo, lo) },
			}
			if wf.width == 1 {
				packs["without values"] = func(dst []uint64) []uint64 { return wf.packSet(dst, set, nil, lo, hi, 0) }
			}
			if hi-lo <= wf.sparsePer {
				packs["short"] = func(dst []uint64) []uint64 { return wf.packShort(dst, row[lo:hi], zero, lo) }
			}
			for name, pack := range packs {
				if got = pack(got[:0]); !slices.Equal(got, want) {
					t.Fatalf("packSet %s over columns [%d, %d) of %d (%d set): %#x, packRow %#x", name, lo, hi, cols, k-i, got, want)
				}
			}
		}
	}
}

// BenchmarkPackBits times packSet alone, in the 1-bit format — 64 random boolean
// rows of 256 columns, each packed as four 63-column segments, most of
// them across a word boundary, as a cube owner packs its segments —
// into a slab allocated once, at two densities: a sixteenth of the
// columns set, which packs as sparse words, and three quarters, which
// packs positionally. It reports ns per packed column and must not
// allocate (CI fails on a non-zero allocs/op).
func BenchmarkPackBits(b *testing.B) {
	const rows, cols, segs = 64, 256, 4
	sr := core.BoolOrAnd()
	wf, err := newWireFormat(cols, []int64{sr.One}, sr)
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name      string
		sixteenth int // the share of columns set, in sixteenths
	}{{"sparse", 1}, {"positional", 12}} {
		rng := rand.New(rand.NewSource(1))
		sets := make([]uint64, rows*cols/64)
		for i := range sets {
			for j := 0; j < 64; j++ {
				if rng.Intn(16) < enc.sixteenth {
					sets[i] |= 1 << j
				}
			}
		}
		b.Run(enc.name, func(b *testing.B) {
			slab := make([]uint64, 0, rows*cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slab = slab[:0]
				for v := 0; v < rows; v++ {
					set := sets[v*cols/64 : (v+1)*cols/64]
					for s := 0; s < segs; s++ {
						slab = wf.packSet(slab, set, nil, 2+s*(cols/segs-1), 2+(s+1)*(cols/segs-1), 0)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*segs*(cols/segs-1)), "ns/column")
		})
	}
}

// TestDecodeRejectsOutOfRowColumn: a word naming a column the index
// bits can express but the accumulator does not have must panic on the
// slice bound (the engine reports it as a HandlerPanicError), in both
// encodings and in every decode loop; empty slots past the last column
// are legal padding.
func TestDecodeRejectsOutOfRowColumn(t *testing.T) {
	const cols = 5 // 3 index bits: columns 5..7 are expressible but absent
	for _, sr := range core.AllSemirings() {
		wf, err := newWireFormat(cols, []int64{sr.One}, sr)
		if err != nil {
			t.Fatal(err)
		}
		if wf.loop != sr.Kind() {
			t.Fatalf("%s: format chose loop %d, want the semiring's own %d", sr.Name, wf.loop, sr.Kind())
		}
		nd := &mulNode{sr: sr, wf: wf, acc: NewDense(1, cols, sr).Vals}
		for name, decode := range map[string]func(int64, uint64){
			"chosen":  nd.accumulate,
			"generic": nd.accumulateGeneric,
		} {
			panics := func(w uint64) (panicked bool) {
				defer func() { panicked = recover() != nil }()
				decode(sr.One, w)
				return false
			}
			if w := uint64(7)<<wf.width | 1; !panics(w) {
				t.Errorf("%s/%s: sparse word %#x with column 7 of %d decoded without panicking", sr.Name, name, w, cols)
			}
			if w := posFlag | 4 | 1<<(wf.idxBits+wf.width); !panics(w) {
				t.Errorf("%s/%s: positional word %#x reaching column 5 of %d decoded without panicking", sr.Name, name, w, cols)
			}
			if w := posFlag | 4 | 1<<wf.idxBits; panics(w) {
				t.Errorf("%s/%s: positional word %#x ending at the last column panicked", sr.Name, name, w)
			}
		}
	}
}

// TestBitsAt: bitsAt returns bits j..j+k-1 of a bitset for every width
// 0 < k ≤ 64 and every start, across word boundaries and up to the
// bitset's end.
func TestBitsAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	set := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	for j := 0; j < 64*len(set); j++ {
		for k := 1; k <= 64 && j+k <= 64*len(set); k++ {
			var want uint64
			for i := 0; i < k; i++ {
				want |= set[(j+i)/64] >> ((j + i) % 64) & 1 << i
			}
			if got := bitsAt(set, j, k); got != want {
				t.Fatalf("bitsAt(j=%d, k=%d) = %#x, want %#x", j, k, got, want)
			}
		}
	}
}
