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
// delivered more than one word to it in one round.
type linkCheck struct {
	engine.Node
	perSrc []int
}

func (c *linkCheck) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	for _, m := range inbox {
		c.perSrc[m.Src]++
	}
	for _, m := range inbox {
		if got := c.perSrc[m.Src]; got > 1 {
			return fmt.Errorf("round %d: link %d->%d carried %d words", r, m.Src, ctx.ID(), got)
		}
		c.perSrc[m.Src] = 0
	}
	return c.Node.Round(ctx, r, inbox)
}

// TestPassTrafficPinned pins the exact message schedule of one sparse
// and one sparse-dense pass — rounds, routed words, and the final link
// of the engine's replay-digest chain, which folds every delivered
// (destination, source, payload) triple of every round — and requires
// it to be the same at 1, 2 and 4 workers. A change to how responders pace
// their rows must leave this table untouched; on the way it checks that
// no link ever carries more than one word in a round.
func TestPassTrafficPinned(t *testing.T) {
	sr := core.MinPlus()
	g := graph.RandomGNPWeighted(48, 0.15, 30, 7)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatal(err)
	}
	// B = A^2: rows of ~40 entries, several wire words each, so pacing
	// spans rounds.
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
		rounds int
		words  uint64
		digest uint64
	}{
		{"sparse", 7, 2037, 0x6421b4fae4ae8dd3},
		{"dense", 6, 1715, 0x19b53aa4b815b0bd},
	}
	for _, want := range golden {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", want.pass, workers), func(t *testing.T) {
				p, err := passes[want.pass]()
				if err != nil {
					t.Fatal(err)
				}
				nodes := make([]engine.Node, a.N)
				for v, nd := range p.Nodes() {
					nodes[v] = &linkCheck{Node: nd, perSrc: make([]int, a.N)}
				}
				e, err := engine.New(a.N, engine.Options{Workers: workers, RecordDigests: true})
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

// predictTraffic is the traffic model of one row-pull product pass
// A ⊗ B, derived from its operands alone, for every pass
// newPass builds but a cube pass (predictCube).
// Row k goes to the off-diagonal columns of row k of a — a's pattern is
// symmetric, so those are the nodes v with a[v][k] non-Zero — and
// nobody asks for it. Row k streams the non-Zero entries of b[k] that
// differ from prev[k] (all of them when prev is nil), packed in the
// wire format of exactly the values the pass sends. vote says whether
// the pass votes on whether A ⊗ B = B.
//
//   - Data: node k sends #receivers(k) × width(k) words, where width(k)
//     is the packed width of what row k sends, word i of it in round i.
//   - The vote (cubeTally): the accumulator starts at B, and node v's row
//     moves in the first round it folds a term that lowers (⊕-raises) an
//     entry of B[v]: its own row's in round 0, word i of a received row
//     in round i + 1.
//   - Rounds: two past the last round anything is sent, one when nothing
//     is.
func predictTraffic(t *testing.T, a *Matrix, b, prev *Dense, vote bool) passTraffic {
	t.Helper()
	n, sr := b.N, b.Sr
	sent := func(i int) bool {
		return b.Vals[i] != sr.Zero && (prev == nil || b.Vals[i] != prev.Vals[i])
	}
	var rg valueRange
	for i, v := range b.Vals {
		if sent(i) && v != sr.One {
			rg.add(v)
		}
	}
	wf, err := rg.format(b.K, sr)
	if err != nil {
		t.Fatal(err)
	}
	var pt passTraffic
	rows := make([][]uint64, n)
	last := -1 // the last round anything is sent in
	for k := 0; k < n; k++ {
		aCols, _ := a.Row(core.NodeID(k))
		receivers := len(aCols)
		if _, ok := slices.BinarySearch(aCols, core.NodeID(k)); ok {
			receivers--
		}
		var cols []core.NodeID
		var vals []int64
		for j := 0; j < b.K; j++ {
			if i := k*b.K + j; sent(i) {
				cols, vals = append(cols, core.NodeID(j)), append(vals, b.Vals[i])
			}
		}
		rows[k] = wf.packRow(nil, cols, vals)
		pt.words += uint64(receivers * len(rows[k]))
		if receivers > 0 {
			last = max(last, len(rows[k])-1)
		}
	}
	tl := newCubeTally(&pt, sr, nil, n, 0, last)
	got := make([]int64, b.K)
	for k := 0; vote && k < n; k++ {
		aCols, _ := a.Row(core.NodeID(k))
		for _, v := range aCols {
			avk, bv := a.At(v, core.NodeID(k)), b.Row(v)
			for i, w := range rows[k] {
				round := i + 1
				if int(v) == k {
					round = 0
				}
				for j := range got {
					got[j] = sr.Zero
				}
				wf.decode(w, got, 0)
				for j, x := range got {
					if x != sr.Zero && sr.Add(bv[j], sr.Mul(avk, x)) != bv[j] {
						tl.move(int(v), round)
					}
				}
			}
			switch {
			case int(v) == k:
			case v == 0:
				tl.to0[k] = len(rows[k])
			case k == 0:
				tl.from0[v] = len(rows[0])
			}
		}
	}
	tl.finish(vote)
	return pt
}

// predictCube is the traffic model of the cube pass of a semi-naive
// squaring X ⊗ X = X ⊕ X ⊗ Δ of a symmetric X, derived from X and
// the P with X = P ⊗ P alone, written from the protocol cubeNode
// documents rather than from its code. Let q = ⌊n^{1/3}⌋,
// B_i = [i·n/q, (i+1)·n/q) and cube node (a, b, c) = (a·q + b)·q + c;
// only the cube nodes with a ≤ b multiply. held says the cube nodes
// hold P's blocks from the squaring before, which ran by the cube: an
// update pass.
//
//   - Phase 1: owner v in B_a sends X[v, B_c] (Δ[v, B_c] in an update
//     pass) to (a, b, c) for every b ≥ a and every c, and Δ[v, B_b] to
//     (a', b, a) for every b and every a' ≤ b but a' = b = a, each
//     segment packed in the wire format of X's values; a link's words
//     are the segments it carries, and a link into the sender itself
//     costs nothing. F1 = the widest link in words.
//   - Phase 2: let P_t = X[B_a, B_c] ⊗ D[B_c, B_b] for cube node
//     t = (a, b, c), a ≤ b, D = X on a diagonal node of a pass that is
//     not an update and Δ elsewhere. t sends owner u in B_a, u ≠ t, the
//     non-Zero entries of row u of P_t and, when a < b, owner w in B_b,
//     w ≠ t, those of column w of P_t as a row over the columns B_a,
//     each packed in the format of the values' products; word i of a
//     link goes out in round F1 + i.
//   - The vote: owner u's row moves in the first round a partial word
//     that lowers (⊕-raises) an entry of X[u] reaches it — round F1 for
//     its own partial. A moved row but node 0's sends node 0 the word 0,
//     unless node 0's verdict has reached it by then; node 0 tells every
//     other node at its own row's move or on the first ballot's arrival.
//     A vote word queued on a link that still carries data goes out
//     behind it. No row moves: no vote word.
//   - Rounds: two past the last round anything is sent, one when nothing
//     is.
//
// Where no wire word fits the partial rows' format, the squaring is a
// row-pull product and predictTraffic's, and cube is false.
func predictCube(t *testing.T, x *Matrix, prev *Dense, vote, held bool) (m cubeModel) {
	t.Helper()
	n, sr := x.N, x.Sr
	dx := dense(x)
	var rg valueRange
	for _, v := range dx.Vals {
		if v != sr.Zero && v != sr.One {
			rg.add(v)
		}
	}
	wf, err := rg.format(n, sr)
	if err != nil {
		t.Fatal(err)
	}
	prg, ok := rg.times(rg, sr)
	pwf, err := prg.format(n, sr)
	if !ok || err != nil {
		m.passTraffic = predictTraffic(t, x, dx, prev, vote)
		return m
	}
	m.cube = true
	pt := &m.passTraffic
	q := 1
	for (q+1)*(q+1)*(q+1) <= n {
		q++
	}
	lo := func(i int) int { return i * n / q }
	blockOf := func(v int) int {
		i := 0
		for lo(i+1) <= v {
			i++
		}
		return i
	}
	// seg packs row v's entries over the columns of block i that keep
	// reports true, in format f.
	seg := func(f *wireFormat, row []int64, i int, keep func(j int) bool) []uint64 {
		var cols []core.NodeID
		var vals []int64
		for j := lo(i); j < lo(i+1); j++ {
			if row[j] != sr.Zero && keep(j) {
				cols, vals = append(cols, core.NodeID(j)), append(vals, row[j])
			}
		}
		return f.packRow(nil, cols, vals)
	}
	last := -1 // the last round anything is sent in
	widest := 0
	for v := 0; v < n; v++ {
		a, row, old := blockOf(v), dx.Row(core.NodeID(v)), prev.Row(core.NodeID(v))
		link := map[int]int{}
		update := func(j int) bool { return !held || row[j] != old[j] }
		for b := 0; b < q; b++ {
			for cc := 0; cc < q && b >= a; cc++ {
				link[(a*q+b)*q+cc] += len(seg(wf, row, cc, update))
			}
			for a2 := 0; a2 <= b; a2++ {
				if a2 != a || b != a {
					link[(a2*q+b)*q+a] += len(seg(wf, row, b, func(j int) bool { return row[j] != old[j] }))
				}
			}
		}
		for dst, w := range link {
			if dst != v {
				m.phase1 += uint64(w)
				widest = max(widest, w)
			}
		}
	}
	pt.words, m.f1 = m.phase1, widest
	f1 := widest
	if widest > 0 {
		last = f1 - 1
	}
	// Phase 2, with the round each owner's row first moves.
	tl := newCubeTally(pt, sr, pwf, n, f1, last)
	for tt := 0; tt < q*q*q; tt++ {
		a, b, cc := tt/(q*q), tt/q%q, tt%q
		if a > b {
			continue
		}
		// prod is P_t, row-major over the rows B_a and the columns B_b.
		ra, rb := lo(a+1)-lo(a), lo(b+1)-lo(b)
		prod := make([]int64, ra*rb)
		for i := range prod {
			prod[i] = sr.Zero
		}
		for u := lo(a); u < lo(a+1); u++ {
			for k := lo(cc); k < lo(cc+1); k++ {
				xuk := dx.At(core.NodeID(u), k)
				if xuk == sr.Zero {
					continue
				}
				for j := lo(b); j < lo(b+1); j++ {
					d := dx.At(core.NodeID(k), j)
					if (held || !(a == b && b == cc)) && d == prev.At(core.NodeID(k), j) {
						continue
					}
					if d != sr.Zero {
						i := (u-lo(a))*rb + j - lo(b)
						prod[i] = sr.Add(prod[i], sr.Mul(xuk, d))
					}
				}
			}
		}
		part := make([]int64, n)
		for u := lo(a); u < lo(a+1); u++ {
			for j := range part {
				part[j] = sr.Zero
			}
			copy(part[lo(b):], prod[(u-lo(a))*rb:][:rb])
			tl.deliver(tt, u, dx.Row(core.NodeID(u)), part, lo(b), lo(b+1))
		}
		for w := lo(b); w < lo(b+1) && a < b; w++ {
			for j := range part {
				part[j] = sr.Zero
			}
			for u := lo(a); u < lo(a+1); u++ {
				part[u] = prod[(u-lo(a))*rb+w-lo(b)]
			}
			tl.deliver(tt, w, dx.Row(core.NodeID(w)), part, lo(a), lo(a+1))
		}
	}
	tl.finish(vote)
	return m
}

// cubeTally is the model of a pass's vote, and of a cube pass's phase 2
// as the model delivers each partial row: its words, the last round
// anything is sent in, the round each owner's row first moves, and the
// round each link into and out of node 0 is done with its data.
type cubeTally struct {
	pt       *passTraffic
	sr       core.Semiring
	pwf      *wireFormat
	f1, last int
	moved    []int // -1: never
	to0      []int // the round after node t's last data word to node 0; 0 with none
	from0    []int // the round after node 0's last data word to node u; 0 with none
}

func newCubeTally(pt *passTraffic, sr core.Semiring, pwf *wireFormat, n, f1, last int) *cubeTally {
	tl := &cubeTally{pt: pt, sr: sr, pwf: pwf, f1: f1, last: last,
		moved: make([]int, n), to0: make([]int, n), from0: make([]int, n)}
	for u := range tl.moved {
		tl.moved[u] = -1
	}
	return tl
}

func (tl *cubeTally) move(u, r int) {
	if tl.moved[u] < 0 || r < tl.moved[u] {
		tl.moved[u] = r
	}
}

// deliver sends owner u, whose accumulator starts at acc, the partial
// row part over the columns lo..hi-1 from cube node t: packed in the
// partial rows' format, word i of it in round F1 + i, or folded in place
// in round F1 when u is t.
func (tl *cubeTally) deliver(t, u int, acc, part []int64, lo, hi int) {
	sr, f1 := tl.sr, tl.f1
	lowers := func(j int) bool { return sr.Add(acc[j], part[j]) != acc[j] }
	if u == t {
		for j := lo; j < hi; j++ {
			if part[j] != sr.Zero && lowers(j) {
				tl.move(u, f1)
			}
		}
		return
	}
	var cols []core.NodeID
	var vals []int64
	for j := lo; j < hi; j++ {
		if part[j] != sr.Zero {
			cols, vals = append(cols, core.NodeID(j)), append(vals, part[j])
		}
	}
	words := tl.pwf.packRow(nil, cols, vals)
	if len(words) == 0 {
		return
	}
	tl.pt.words += uint64(len(words))
	tl.last = max(tl.last, f1+len(words)-1)
	if u == 0 {
		tl.to0[t] = f1 + len(words)
	}
	if t == 0 {
		tl.from0[u] = f1 + len(words)
	}
	for r, w := range words {
		got := make([]int64, hi-lo)
		for j := range got {
			got[j] = sr.Zero
		}
		tl.pwf.decode(w, got, lo)
		for j, p := range got {
			if p != sr.Zero && lowers(lo+j) {
				tl.move(u, f1+1+r)
			}
		}
	}
}

// finish adds the vote, when the pass takes one, and sets the rounds.
//
//   - The vote: a moved row but node 0's sends node 0 the word 0 in the
//     round it moves, unless node 0's verdict has reached it by then;
//     node 0 tells every other node at its own row's move or on the
//     first ballot's arrival. A vote word queued on a link that still
//     carries data goes out in the round after its last word. No row
//     moves: no vote word.
//   - Rounds: two past the last round anything is sent, one when nothing
//     is.
func (tl *cubeTally) finish(vote bool) {
	n, moved, last := len(tl.moved), tl.moved, tl.last
	if vote && slices.ContainsFunc(moved, func(r int) bool { return r >= 0 }) {
		announce := moved[0]
		for u := 1; u < n; u++ {
			if moved[u] >= 0 {
				if r := max(moved[u], tl.to0[u]) + 1; announce < 0 || r < announce {
					announce = r
				}
			}
		}
		for v := 1; v < n; v++ {
			sent := max(announce, tl.from0[v])
			last = max(last, sent)
			if moved[v] >= 0 && moved[v] < sent+1 {
				tl.pt.words++ // v's ballot
				last = max(last, moved[v], tl.to0[v])
			}
		}
		tl.pt.words += uint64(n - 1)
	}
	tl.pt.rounds = last + 2
}

// prices2D reports whether a Relaxation over the reflexive S runs its
// engine products by the 2D block partition, from the exact counts of
// one full column of Δ: row-pull moves Σ_k off-diagonal deg(k) entries;
// the 2D product Σ_k #{a : S[B_a, k] ≠ Zero} into the cube nodes and
// Σ_(a,c) #{rows of S[B_a, B_c] with an entry} back, for q = ⌊√n⌋.
func prices2D(s *Matrix) bool {
	n, ds := s.N, dense(s)
	q := 1
	for (q+1)*(q+1) <= n {
		q++
	}
	lo := func(i int) int { return i * n / q }
	rowPull, twoD := 0, 0
	for k := 0; k < n; k++ {
		for v := 0; v < n; v++ {
			if v != k && ds.At(core.NodeID(v), k) != s.Sr.Zero {
				rowPull++
			}
		}
	}
	for a := 0; a < q; a++ {
		for c := 0; c < q; c++ {
			for u := lo(a); u < lo(a+1); u++ {
				for j := lo(c); j < lo(c+1); j++ {
					if ds.At(core.NodeID(u), j) != s.Sr.Zero {
						twoD++ // row u of S[B_a, B_c] has an entry
						break
					}
				}
			}
			for k := lo(c); k < lo(c+1); k++ {
				for u := lo(a); u < lo(a+1); u++ {
					if ds.At(core.NodeID(u), k) != s.Sr.Zero {
						twoD++ // S[B_a, k] has an entry
						break
					}
				}
			}
		}
	}
	return twoD < rowPull
}

// predictRelax2D is the traffic model of a Relaxation's 2D product
// B ⊕ S ⊗ Δ, Δ the entries of b that are non-Zero and differ from prev,
// written from the protocol the Relaxation documents. Let q = ⌊√n⌋,
// B_i = [i·n/q, (i+1)·n/q) and cube node (a, 0, c) = a·q + c; nodes
// from q² on take no part. held says the cube nodes hold S's blocks,
// shipped by an earlier 2D product over S.
//
//   - Formats: phase 1 packs Δ's values over its k columns, and, while
//     S ships, S's values too, each entry S[v][j] at column k + j; the
//     partial rows pack every product of an S value and a Δ value over
//     the k columns. Where no wire word fits one, the product is a
//     row-pull one and predictTraffic's, and cube is false.
//   - Phase 1: owner v in B_c sends (a, 0, c) S[v, B_a'] for every
//     block a' of the cube node (a, 0, a') = (c, 0, a') while S ships,
//     then Δ[v] to every (a, 0, c) with S[B_a, v] ≠ Zero, one link a
//     destination; a link into v itself costs nothing. F1 = the widest
//     link in words.
//   - Phase 2: cube node (a, 0, c) sends owner u in B_a its row of
//     S[B_a, B_c] ⊗ Δ[B_c], and the vote is a cube pass's (cubeTally).
func predictRelax2D(t *testing.T, s *Matrix, b, prev *Dense, vote, held bool) (m cubeModel) {
	t.Helper()
	n, k, sr := s.N, b.K, s.Sr
	ds := dense(s)
	var rgS, rgD valueRange
	for _, v := range ds.Vals {
		if v != sr.Zero && v != sr.One {
			rgS.add(v)
		}
	}
	delta := func(v, j int) bool {
		x := b.At(core.NodeID(v), j)
		return x != sr.Zero && x != prev.At(core.NodeID(v), j)
	}
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			if x := b.At(core.NodeID(v), j); delta(v, j) && x != sr.One {
				rgD.add(x)
			}
		}
	}
	ship, cols := rgD, k
	if !held {
		ship, cols = rgD.union(rgS), k+n
	}
	wf, err1 := ship.format(cols, sr)
	prg, ok := rgS.times(rgD, sr)
	pwf, err2 := prg.format(k, sr)
	if err1 != nil || err2 != nil || !ok {
		m.passTraffic = predictTraffic(t, s, b, prev, vote)
		return m
	}
	m.cube = true
	q := 1
	for (q+1)*(q+1) <= n {
		q++
	}
	lo := func(i int) int { return i * n / q }
	blockOf := func(v int) int {
		i := 0
		for lo(i+1) <= v {
			i++
		}
		return i
	}
	widest := 0
	for v := 0; v < n; v++ {
		c := blockOf(v)
		link := map[int]int{}
		var dc []core.NodeID
		var dv []int64
		for j := 0; j < k; j++ {
			if delta(v, j) {
				dc, dv = append(dc, core.NodeID(j)), append(dv, b.At(core.NodeID(v), j))
			}
		}
		for a := 0; a < q; a++ {
			var sc []core.NodeID
			var sv []int64
			meets := false
			for j := lo(a); j < lo(a+1); j++ {
				if x := ds.At(core.NodeID(v), j); x != sr.Zero {
					sc, sv, meets = append(sc, core.NodeID(k+j)), append(sv, x), true
				}
			}
			if !held {
				link[c*q+a] += len(wf.packRow(nil, sc, sv))
			}
			if meets { // S is symmetric: S[B_a, v] ≠ Zero
				link[a*q+c] += len(wf.packRow(nil, dc, dv))
			}
		}
		for dst, w := range link {
			if dst != v {
				m.phase1 += uint64(w)
				widest = max(widest, w)
			}
		}
	}
	m.words, m.f1 = m.phase1, widest
	last := -1
	if widest > 0 {
		last = widest - 1
	}
	tl := newCubeTally(&m.passTraffic, sr, pwf, n, widest, last)
	part := make([]int64, k)
	for tt := 0; tt < q*q; tt++ {
		a, c := tt/q, tt%q
		for u := lo(a); u < lo(a+1); u++ {
			for j := range part {
				part[j] = sr.Zero
			}
			for kk := lo(c); kk < lo(c+1); kk++ {
				suk := ds.At(core.NodeID(u), kk)
				for j := 0; j < k && suk != sr.Zero; j++ {
					if delta(kk, j) {
						part[j] = sr.Add(part[j], sr.Mul(suk, b.At(core.NodeID(kk), j)))
					}
				}
			}
			tl.deliver(tt, u, b.Row(core.NodeID(u)), part, 0, k)
		}
	}
	tl.finish(vote)
	return m
}

// cubeModel is predictCube's verdict on one squaring.
type cubeModel struct {
	passTraffic
	cube   bool   // it runs by the cube; false: it is a row-pull product
	phase1 uint64 // the words the owners send in phase 1
	f1     int    // F1, the round phase 1 ends in
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

// loopModel drives a kernel whose passes are all Power and Relaxation
// products and, as each pass starts, records what predictTraffic says
// it will cost, from the operands of the loop whose product is in
// flight. A Power squaring with prev set is semi-naive: a cube pass
// over X and P. The model tracks each Relaxation itself: its first
// product is local and no pass, so the first engine product multiplies
// S ⊗ (indicator columns), and every engine product streams only what
// changed since the B the product before multiplied — the indicator
// columns, before the first.
type loopModel struct {
	clique.Kernel
	t       *testing.T
	want    []passTraffic
	lastB   map[*Relaxation]*Dense // the B of each Relaxation's last engine product
	relHeld map[*Relaxation]bool   // the Relaxation's cube nodes hold S's blocks
	flat    int                    // 2D relaxation products
	squares map[*Power]int         // squarings each Power has started
	held    map[*Power]bool        // the Power's last squaring ran by the cube
	resq    bool                   // some Power squared more than once
	semi    int                    // semi-naive squarings
	updates int                    // cube squarings whose cube nodes held P's blocks
}

func newLoopModel(t *testing.T, k clique.Kernel) *loopModel {
	return &loopModel{Kernel: k, t: t, lastB: map[*Relaxation]*Dense{}, relHeld: map[*Relaxation]bool{},
		squares: map[*Power]int{}, held: map[*Power]bool{}}
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
		var left *Matrix
		if !loop.passIsSquare {
			left = sparse(loop.result)
		} else {
			left = sparse(loop.base)
			m.squares[loop]++
			m.resq = m.resq || m.squares[loop] > 1
			if loop.prev != nil {
				m.semi++
				held := m.held[loop]
				want := predictCube(m.t, left, loop.prev, loop.pass.voting, held)
				m.want = append(m.want, want.passTraffic)
				m.held[loop] = want.cube
				if held {
					m.updates++
				}
				return pass, nil
			}
			m.held[loop] = false
		}
		m.want = append(m.want, predictTraffic(m.t, left, loop.base, nil, loop.pass.voting))
	case *Relaxation:
		prev, seen := m.lastB[loop]
		if !seen {
			// The local product started from the indicator columns, which
			// the Relaxation holds as prev: check that they are one One a
			// column and that B is S over them.
			prev = loop.prev
			if err := checkLocalProduct(loop.s, prev, loop.b); err != nil {
				m.t.Errorf("pass %d: %v", len(m.want), err)
			}
		}
		if !seen {
			// A Relaxation may start from a plan whose cube nodes hold S.
			m.relHeld[loop] = loop.cube != nil && loop.cube.held
		}
		m.lastB[loop] = loop.b
		if prev != nil && prices2D(loop.s) {
			want := predictRelax2D(m.t, loop.s, loop.b, prev, loop.pass.voting, m.relHeld[loop])
			m.want = append(m.want, want.passTraffic)
			m.relHeld[loop] = m.relHeld[loop] || want.cube
			if want.cube {
				m.flat++
			}
			return pass, nil
		}
		m.want = append(m.want, predictTraffic(m.t, loop.s, loop.b, prev, loop.pass.voting))
	default:
		return pass, fmt.Errorf("pass %d is neither a Power nor a Relaxation product", len(m.want))
	}
	return pass, nil
}

// checkLocalProduct returns an error unless ind holds indicator
// columns — one One a column, Zero elsewhere — and b = s ⊗ ind.
func checkLocalProduct(s *Matrix, ind, b *Dense) error {
	if ind == nil {
		return fmt.Errorf("a Relaxation kept no indicator columns")
	}
	for j := 0; j < ind.K; j++ {
		ones := 0
		for v := 0; v < ind.N; v++ {
			switch ind.At(core.NodeID(v), j) {
			case ind.Sr.One:
				ones++
			case ind.Sr.Zero:
			default:
				ones = -1
			}
		}
		if ones != 1 {
			return fmt.Errorf("column %d the first engine product started from is no indicator", j)
		}
	}
	want, err := MulDenseRef(s, ind)
	if err != nil {
		return err
	}
	if !slices.Equal(b.Vals, want.Vals) {
		return fmt.Errorf("the local first product differs from S ⊗ (indicator columns)")
	}
	return nil
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

// TestKernelTrafficModel: every pass of every registered kernel built
// on the product loops bills, as a round hook counts it, exactly what
// the model gives, on the golden graph (n = 48: a 3×3×3 cube over 27
// of the nodes, the rest owners only) and on G(64, 0.15) (a 4×4×4 cube
// over every node).
// apsp, closure and widest square until stable, hop-limited squares and
// multiplies to 7 hops, ksource and the other pipelines run a Power or
// a hopset construction and then a Relaxation. So the model covers
// whole-row products, semi-naive squarings as cube passes with their
// self-timed votes, Relaxation products after the local first one and
// votes, and the 2D Relaxation products over the hopset-augmented S
// (predictRelax2D). Every kernel whose Power squares more than once must
// square semi-naively. bfs, bellman-ford and mst run
// passes of their own and have no model yet.
func TestKernelTrafficModel(t *testing.T) {
	graphs := []*graph.CSR{
		graph.RandomGNPWeighted(48, 0.15, 30, 7),
		graph.RandomGNPWeighted(64, 0.15, 30, 3),
	}
	covered, updates, flat := 0, 0, 0
	for _, name := range clique.Kernels() {
		switch name {
		case "bfs", "bellman-ford", "mst":
			continue
		}
		covered++
		for _, g := range graphs {
			t.Run(fmt.Sprintf("n%d/%s", g.N, name), func(t *testing.T) {
				k, err := clique.NewKernel(name, g)
				if err != nil {
					t.Fatal(err)
				}
				var got []passTraffic
				m := newLoopModel(t, k)
				s, err := clique.New(g, trafficHook(&got))
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
				if m.resq && m.semi == 0 {
					t.Error("a Power squared more than once and never semi-naively; the fixture must exercise the cube passes")
				}
				updates += m.updates
				flat += m.flat
			})
		}
	}
	if updates == 0 {
		t.Error("no cube squaring ran while its cube nodes held their blocks; the fixtures must exercise the Δ-only segments")
	}
	if flat == 0 {
		t.Error("no Relaxation product ran by the 2D block partition; the fixtures must exercise it")
	}
	if covered < 12 {
		t.Errorf("the model covers %d registered kernels, want the 12 built on Power and Relaxation", covered)
	}
}
