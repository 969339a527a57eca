package matmul

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// votePassRun is one pass run's totals and its per-round replay digests.
type votePassRun struct {
	*engine.Stats
	digests []uint64
}

// runVotePass runs p on a fresh engine at the given worker count,
// bounded by the pass's own MaxRoundsHint and with every link checked
// to carry at most one word a round.
func runVotePass(t *testing.T, p *Pass, workers int) votePassRun {
	t.Helper()
	nodes := make([]engine.Node, p.n)
	for v, nd := range p.Nodes() {
		nodes[v] = &linkCheck{Node: nd, perSrc: make([]int, p.n)}
	}
	e, err := engine.New(p.n, engine.Options{Workers: workers, RecordDigests: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, err := e.RunBounded(context.Background(), nodes, p.MaxRoundsHint())
	if err != nil {
		t.Fatalf("pass did not finish inside its MaxRoundsHint %d: %v", p.MaxRoundsHint(), err)
	}
	return votePassRun{st, e.Digests()}
}

// iterates returns b, a ⊗ b, a ⊗ (a ⊗ b), ... with the sequential
// reference, up to and including the first that the next product leaves
// unchanged.
func iterates(t *testing.T, a *Matrix, b *Dense) []*Dense {
	t.Helper()
	out := []*Dense{b}
	for i := 0; i <= a.N; i++ {
		next, err := MulDenseRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(next.Vals, b.Vals) {
			return out
		}
		b = next
		out = append(out, b)
	}
	t.Fatal("dense iteration did not stabilise within n products")
	return nil
}

// voteCase is one semi-naive row-pull product B ⊕ A ⊗ Δ, Δ the entries
// of B that differ from prev, to run bare and voting, and what the vote
// must decide. words >= 0 is exactly what the vote costs in words.
type voteCase struct {
	name    string
	a       *Matrix
	b, prev *Dense
	changed bool
	words   int
}

// checkVote runs tc's product bare and voting at the given worker count
// and checks the contract of a voting pass: accumulators that start at
// B, the same product as the bare pass, the verdict
// !slices.Equal(C, B), at most 2 rounds and
// 2(n-1) words over the bare pass — nothing at all, and the bare pass's
// digest chain, when it confirms that C = B — each pass exactly what the
// model predicts, no link carrying two words in one round, and
// MaxRoundsHint covering it.
func checkVote(t *testing.T, build func(vote bool) (*Pass, error), model func(vote bool) passTraffic, workers int) (changed bool) {
	t.Helper()
	bare, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	voting, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(voting.flat, voting.b.Vals) {
		t.Fatal("a voting pass's accumulators do not start at B")
	}
	bs, vs := runVotePass(t, bare, workers), runVotePass(t, voting, workers)
	if !bare.changed() {
		t.Error("a pass that does not vote must report changed")
	}
	if !slices.Equal(voting.Dense().Vals, bare.Dense().Vals) {
		t.Error("the voting pass computed a different product")
	}
	changed = voting.changed()
	if want := !slices.Equal(voting.flat, voting.b.Vals); changed != want {
		t.Errorf("changed() = %v, but C differs from B: %v", changed, want)
	}
	n := bare.n
	dr, dw := vs.Rounds-bs.Rounds, int(vs.TotalMsgs)-int(bs.TotalMsgs)
	if dr < 0 || dr > 2 || dw < 0 || dw > 2*(n-1) {
		t.Errorf("the vote cost %d rounds and %d words, bound 2 and %d", dr, dw, 2*(n-1))
	}
	if !changed && (dr != 0 || dw != 0 || vs.digests[vs.Rounds-1] != bs.digests[bs.Rounds-1]) {
		t.Errorf("a vote that confirms C = B cost %d rounds and %d words, or moved the digest chain", dr, dw)
	}
	if changed && dw < n-1 {
		t.Errorf("a changed verdict cost %d words; node 0 has to tell %d nodes", dw, n-1)
	}
	for _, run := range []struct {
		st   votePassRun
		vote bool
	}{{bs, false}, {vs, true}} {
		if want := model(run.vote); run.st.Rounds != want.rounds || run.st.TotalMsgs != want.words {
			t.Errorf("vote=%v: %d rounds and %d words, model %d and %d", run.vote, run.st.Rounds, run.st.TotalMsgs, want.rounds, want.words)
		}
	}
	if vs.Rounds > voting.MaxRoundsHint() {
		t.Errorf("%d rounds exceed MaxRoundsHint %d", vs.Rounds, voting.MaxRoundsHint())
	}
	return changed
}

// TestVoteAccounting is the billing contract of a voting pass (checkVote)
// on semi-naive row-pull products, at 1 and 2 workers, over every
// semiring, on a sparse G(40, 0.12) and on a smaller, denser G(24, 0.4),
// whose rows of A pack into up to 3 words against 2, so its vote
// overlaps a longer stream among fewer voters: products that change or
// confirm a fixpoint, and lone voters at node 0 (n-1 words) and at node
// n-1 (a ballot and n-1 words).
func TestVoteAccounting(t *testing.T) {
	fixtures := []struct {
		name    string // prefix after the semiring; "" for the first graph
		g       *graph.CSR
		sources []int
	}{
		{"", graph.RandomGNPWeighted(40, 0.12, 30, 5), []int{0, 7, 19, 20, 39}},
		{"wide/", graph.RandomGNPWeighted(24, 0.4, 30, 11), []int{0, 5, 11, 12, 23}},
	}
	var cases []voteCase
	for _, fx := range fixtures {
		cases = append(cases, voteCases(t, fx.g, fx.sources, fx.name)...)
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				build := func(vote bool) (*Pass, error) { return newPass(tc.b, tc.prev, vote, nil, rowPlan(tc.a)) }
				model := func(vote bool) passTraffic { return predictTraffic(t, tc.a, tc.b, tc.prev, vote) }
				if changed := checkVote(t, build, model, workers); changed != tc.changed {
					t.Errorf("changed() = %v, want %v", changed, tc.changed)
				}
				if tc.words >= 0 {
					if got, bare := model(true).words, model(false).words; int(got-bare) != tc.words {
						t.Errorf("the vote costs %d words, want %d", got-bare, tc.words)
					}
				}
			})
		}
	}
}

// voteCases builds the TestVoteAccounting cases on g for every
// semiring. sources are the seed columns of the dense cases; name
// prefixes the case names.
func voteCases(t *testing.T, g *graph.CSR, sources []int, name string) []voteCase {
	t.Helper()
	var cases []voteCase
	for _, sr := range core.AllSemirings() {
		a, err := FromGraph(g, sr, true)
		if err != nil {
			t.Fatal(err)
		}
		n := a.N
		seed := NewDense(n, len(sources), sr)
		for j, src := range sources {
			seed.Row(core.NodeID(src))[j] = sr.One
		}
		its := iterates(t, a, seed)
		if len(its) < 3 {
			t.Fatalf("%s: the columns settle after %d products; the fixture needs a few", sr.Name, len(its)-1)
		}
		settled := its[len(its)-1]
		// The squarings of A up to the first that leaves its operand as it
		// is: the last two are a squaring that confirms the fixpoint.
		powers := []*Matrix{a}
		for len(powers) < 2 || !sameBits(powers[len(powers)-1], powers[len(powers)-2]) {
			x, err := MulRef(powers[len(powers)-1], powers[len(powers)-1])
			if err != nil {
				t.Fatal(err)
			}
			powers = append(powers, x)
		}
		if len(powers) < 3 {
			t.Fatalf("%s: A is its own square; the fixture needs a few squarings", sr.Name)
		}
		closure, before := powers[len(powers)-2], powers[len(powers)-3]
		// lone returns B, the settled columns with row v forgotten, and a
		// prev whose only difference from B is a neighbour u's row: Δ is
		// settled[u], which only row v of C takes anything from.
		lone := func(v int) (b, prev *Dense) {
			cols, _ := a.Row(core.NodeID(v))
			for _, u := range cols {
				if int(u) == v || slices.Equal(settled.Row(u), NewDense(1, settled.K, sr).Vals) {
					continue
				}
				b = &Dense{N: n, K: settled.K, Sr: sr, Vals: slices.Clone(settled.Vals)}
				for j := range b.Row(core.NodeID(v)) {
					b.Row(core.NodeID(v))[j] = sr.Zero
				}
				prev = &Dense{N: n, K: b.K, Sr: sr, Vals: slices.Clone(b.Vals)}
				for j := range prev.Row(u) {
					prev.Row(u)[j] = sr.Zero
				}
				return b, prev
			}
			t.Fatalf("%s: node %d has no neighbour with a settled entry", sr.Name, v)
			return nil, nil
		}
		first, firstPrev := lone(0)
		last, lastPrev := lone(n - 1)
		prefix := sr.Name + "/" + name
		cases = append(cases,
			voteCase{prefix + "dense/changes", a, its[1], seed, true, -1},
			voteCase{prefix + "dense/fixpoint", a, settled, its[len(its)-2], false, 0},
			voteCase{prefix + "sparse/changes", powers[1], dense(powers[1]), dense(a), true, -1},
			voteCase{prefix + "sparse/fixpoint", closure, dense(closure), dense(before), false, 0},
			voteCase{prefix + "dense/only-node-0", a, first, firstPrev, true, n - 1},
			voteCase{prefix + "dense/only-last-node", a, last, lastPrev, true, n},
		)
	}
	return cases
}

// TestVoteOnRandomReflexiveInputs: on random reflexive A over (min,+),
// (max,min), booleans and the generic semiring, every product that
// votes — a first squaring A ⊗ A, whose accumulator starts at A; a
// semi-naive product B ⊕ A ⊗ Δ over random columns; a semi-naive
// squaring by the cube — keeps checkVote's contract at 1 and 2 workers:
// the verdict is !slices.Equal(C, B), no link carries two words in one
// round, and the vote costs at most 2 rounds and 2(n-1) words.
func TestVoteOnRandomReflexiveInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	verdicts := map[bool]int{}
	for _, sr := range append(core.AllSemirings(), generic(core.MinPlus())) {
		for trial, n := range []int{1, 2, 9, 27, 40} {
			g := graph.RandomGNP(n, 0.05+0.3*rng.Float64(), rng.Int63()).WithUniformRandomWeights(2, 20)
			a, err := FromGraph(g, sr, true)
			if err != nil {
				t.Fatal(err)
			}
			// Random columns, a few entries each, and B = A ⊗ prev ⊇ prev.
			prev := NewDense(n, 1+rng.Intn(5), sr)
			for i := range prev.Vals {
				if rng.Intn(4) == 0 {
					prev.Vals[i] = sr.One
					if sr.Kind() != core.KindBoolOrAnd && rng.Intn(2) == 0 {
						prev.Vals[i] = 1 + rng.Int63n(40)
					}
				}
			}
			b, err := MulDenseRef(a, prev)
			if err != nil {
				t.Fatal(err)
			}
			x, err := MulRef(a, a)
			if err != nil {
				t.Fatal(err)
			}
			da, dx := dense(a), dense(x)
			products := []struct {
				name  string
				build func(vote bool) (*Pass, error)
				model func(vote bool) passTraffic
			}{
				{"first-squaring",
					func(vote bool) (*Pass, error) { return newPass(da, nil, vote, nil, rowPlan(a)) },
					func(vote bool) passTraffic { return predictTraffic(t, a, da, nil, vote) }},
				{"semi-naive",
					func(vote bool) (*Pass, error) { return newPass(b, prev, vote, nil, rowPlan(a)) },
					func(vote bool) passTraffic { return predictTraffic(t, a, b, prev, vote) }},
				{"cube",
					func(vote bool) (*Pass, error) { return newPass(dx, da, vote, nil, &cubePlan{}) },
					func(vote bool) passTraffic { return predictCube(t, x, da, vote, false).passTraffic }},
			}
			for _, pr := range products {
				for _, workers := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/%d/n%d/%s/w%d", sr.Name, trial, n, pr.name, workers), func(t *testing.T) {
						verdicts[checkVote(t, pr.build, pr.model, workers)]++
					})
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: the inputs must both change and confirm", verdicts)
	}
}

// TestVoteIgnoresARowNobodyReceives: the vote follows the rows that
// flow. Vertex 9 is isolated — no node multiplies by its row — and owns
// the only multi-word row of B, which it folds locally and sends nobody;
// the pass, bare or voting, ends long before that row would have
// drained. Node 1 learns its distance to node 0 in round 1 and sends its
// ballot at once; node 0's verdict follows a round later.
func TestVoteIgnoresARowNobodyReceives(t *testing.T) {
	g, err := graph.LoadEdgeList(strings.NewReader("p 10\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	sr := core.MinPlus()
	a, err := FromGraph(g.WithUnitWeights(), sr, true)
	if err != nil {
		t.Fatal(err)
	}
	b, prev := NewDense(a.N, 48, sr), NewDense(a.N, 48, sr)
	b.Row(0)[0] = 0
	for j := range b.Row(9) {
		b.Row(9)[j] = int64(1 + j)
	}
	want, err := MulDenseRef(a, b)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := newPass(b, prev, false, nil, rowPlan(a))
	if err != nil {
		t.Fatal(err)
	}
	voting, err := newPass(b, prev, true, nil, rowPlan(a))
	if err != nil {
		t.Fatal(err)
	}
	wide := len(voting.seg(int32(voting.dSeg(9, 0))))
	if wide < 3 {
		t.Fatalf("row 9 packs into %d words; the fixture needs it several rounds wide", wide)
	}
	bs, vs := runVotePass(t, bare, 1), runVotePass(t, voting, 1)
	if !voting.changed() {
		t.Error("vertex 1 learned its distance to vertex 0, yet the vote reports no change")
	}
	if !slices.Equal(voting.Dense().Vals, want.Vals) {
		t.Error("the voting pass computed a different product")
	}
	if bs.Rounds != 2 || vs.Rounds != 4 || vs.TotalMsgs-bs.TotalMsgs != uint64(a.N) {
		t.Errorf("bare %d rounds, voting %d rounds and %d more words; want 2, 4 (node 1's ballot in round 1, node 0's verdict in round 2) and a ballot and %d verdict words, none waiting on row 9's %d",
			bs.Rounds, vs.Rounds, vs.TotalMsgs-bs.TotalMsgs, a.N-1, wide)
	}
}

// TestVoteWithoutAnyStream covers products in which no node streams its
// row to any other — A is the identity — so the pass is its round 0
// alone, the product is B and the vote confirms it without a word, also
// in the single-node clique where nobody is left to tell.
func TestVoteWithoutAnyStream(t *testing.T) {
	sr := core.MinPlus()
	for _, n := range []int{5, 1} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			a := Identity(n, sr)
			b := NewDense(n, 2, sr)
			for v := 0; v < n; v++ {
				b.Row(core.NodeID(v))[v%2] = int64(v)
			}
			p, err := newPass(b, NewDense(n, 2, sr), true, nil, rowPlan(a))
			if err != nil {
				t.Fatal(err)
			}
			st := runVotePass(t, p, 1)
			if p.changed() || st.Rounds != 1 || st.TotalMsgs != 0 {
				t.Errorf("changed() = %v in %d rounds and %d words, want false in 1 and 0", p.changed(), st.Rounds, st.TotalMsgs)
			}
			if !slices.Equal(p.Dense().Vals, b.Vals) {
				t.Error("the identity's product differs from B")
			}
		})
	}
}

// unvoted drives a Power with every vote withdrawn before its pass runs:
// the same products, bare.
type unvoted struct{ *Power }

func (u unvoted) Next(g *graph.CSR) (clique.Pass, error) {
	pass, err := u.Power.Next(g)
	if u.pass != nil {
		u.pass.voting = false
		for v := range u.pass.nds {
			u.pass.nds[v].bRow = nil
		}
	}
	return pass, err
}

// TestVotesAreBilledToTheSession: what a power's votes cost shows in
// clique.Stats and in the replay digests, inside the bound. On a path
// nothing is skipped, so the run is the fixed-count run plus its votes:
// every squaring but the last votes and finds a change, and the totals
// exceed the same products run bare — the same semi-naive squarings
// with their votes withdrawn — by at least n-1 words and at most two
// rounds and 2(n-1) words per voting product.
func TestVotesAreBilledToTheSession(t *testing.T) {
	const n = 33
	a, err := FromGraph(graph.Path(n).WithUniformRandomWeights(7, 9), core.MinPlus(), true)
	if err != nil {
		t.Fatal(err)
	}
	squarings := bits.Len(uint(n - 2))
	run := func(k clique.Kernel) (clique.Stats, []uint64) {
		t.Helper()
		s, err := clique.NewSize(n, clique.WithDigests())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Run(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		return s.Stats(), s.Digests()
	}
	votedPower, barePower := NewPower(a, 1<<squarings), NewPower(a, 1<<squarings)
	voted, digests := run(votedPower)
	if len(digests) != voted.Engine.Rounds {
		t.Fatalf("%d digests for %d rounds", len(digests), voted.Engine.Rounds)
	}
	fixed, _ := run(unvoted{barePower})
	if !slices.Equal(votedPower.Result().(*Matrix).Vals, barePower.Result().(*Matrix).Vals) {
		t.Fatal("the voting and the bare power computed different matrices")
	}
	votes := squarings - 1
	dr := voted.Engine.Rounds - fixed.Engine.Rounds
	dw := int(voted.Engine.TotalMsgs) - int(fixed.Engine.TotalMsgs)
	if voted.Runs != fixed.Runs || dr < 0 || dr > 2*votes || dw < votes*(n-1) || dw > 2*votes*(n-1) {
		t.Errorf("%d voting squarings (%d passes, bare %d) cost %d rounds and %d words over the bare run, want 0..%d rounds and %d..%d words",
			votes, voted.Runs, fixed.Runs, dr, dw, 2*votes, votes*(n-1), 2*votes*(n-1))
	}
}

// TestVotingFirstSquaringStartsAtItsBase: a voting first squaring starts
// every accumulator at its row of A and folds no node's own row, which
// under A's One diagonal would add nothing. Its product is A ⊗ A over
// every semiring, the isolated vertex 7's row included: no node sends
// row 7 of A, so that row of the product is what the accumulator starts
// at. A pass that starts at Zero without the own-row fold gets that row,
// and every other, wrong.
func TestVotingFirstSquaringStartsAtItsBase(t *testing.T) {
	g, err := graph.LoadEdgeList(strings.NewReader("p 8\n0 1 3\n1 2 5\n2 3 2\n3 0 7\n4 5 4\n5 6 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range append(core.AllSemirings(), generic(core.MinPlus())) {
		a, err := FromGraph(g, sr, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MulRef(a, a)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newPass(dense(a), nil, true, nil, rowPlan(a))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runPass(p); err != nil {
			t.Fatal(err)
		}
		matricesEqual(t, p.Sparse(), want, sr.Name+" voting A ⊗ A")
		if !p.changed() {
			t.Errorf("%s: the vote says A ⊗ A = A, though the 4-cycle gains its diagonals", sr.Name)
		}
	}
}
