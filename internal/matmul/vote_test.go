package matmul

import (
	"context"
	"fmt"
	"math/bits"
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

// fixpointDense iterates b <- a ⊗ b with the sequential reference until
// it stops changing.
func fixpointDense(t *testing.T, a *Matrix, b *Dense) *Dense {
	t.Helper()
	for i := 0; i <= a.N; i++ {
		next, err := MulDenseRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(next.Vals, b.Vals) {
			return b
		}
		b = next
	}
	t.Fatal("dense iteration did not stabilise within n products")
	return nil
}

// voteCase is one product, bare and voting, with what the vote must
// decide and what it may cost over the bare pass.
type voteCase struct {
	name    string
	build   func() (*Pass, error)
	changed bool
	// extraRounds/extraWords are exact when >= 0; -1 asks only for the
	// <= 2 rounds, <= 2(n-1) words bound.
	extraRounds, extraWords int
}

// TestVoteAccounting is the billing contract of Pass.vote: a voting
// product returns the same product as the bare pass, its verdict is
// right, it costs at most 2 rounds and 2(n-1) words more — nothing at
// all when it confirms a fixpoint, whose digest chain is then the bare
// pass's — no link ever carries more than one word a round, and
// MaxRoundsHint covers it, at 1 and 2 workers, over every semiring, on
// a sparse G(40, 0.12) and on a smaller, denser G(24, 0.4), whose rows
// of A pack into up to 3 words against 2, so its vote follows a longer
// stream among fewer voters.
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
				bare, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				voting, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				voting.vote()
				bs := runVotePass(t, bare, workers)
				vs := runVotePass(t, voting, workers)
				if !bare.changed() {
					t.Error("a pass never asked to vote must report changed")
				}
				if voting.changed() != tc.changed {
					t.Errorf("changed() = %v, want %v", voting.changed(), tc.changed)
				}
				if !slices.Equal(voting.Dense().Vals, bare.Dense().Vals) {
					t.Error("voting pass computed a different product")
				}
				n := bare.n
				dr, dw := vs.Rounds-bs.Rounds, int(vs.TotalMsgs)-int(bs.TotalMsgs)
				if dr < 0 || dr > 2 || dw < 0 || dw > 2*(n-1) {
					t.Errorf("vote cost %d rounds and %d words, bound 2 and %d", dr, dw, 2*(n-1))
				}
				if tc.extraRounds >= 0 && (dr != tc.extraRounds || dw != tc.extraWords) {
					t.Errorf("vote cost %d rounds and %d words, want exactly %d and %d", dr, dw, tc.extraRounds, tc.extraWords)
				}
				if tc.changed && dr == 0 {
					t.Error("a changed verdict cannot be free: node 0 has to be heard")
				}
				if vs.Rounds > voting.MaxRoundsHint() {
					t.Errorf("%d rounds exceed MaxRoundsHint %d", vs.Rounds, voting.MaxRoundsHint())
				}
				// Up to the round the bare pass falls silent in, the
				// voting pass delivers the same words.
				for r := 0; r < bs.Rounds-1; r++ {
					if vs.digests[r] != bs.digests[r] {
						t.Fatalf("round %d digest differs from the bare pass before the vote began", r)
					}
				}
				if !tc.changed && vs.digests[vs.Rounds-1] != bs.digests[bs.Rounds-1] {
					t.Error("confirming pass's digest chain differs from the bare pass's")
				}
			})
		}
	}
}

// voteCases builds the TestVoteAccounting cases on g for every
// semiring: dense and sparse products that change or confirm a
// fixpoint, and lone voters at node 0 and node n-1. sources are the
// seed columns of the dense cases; name prefixes the case names.
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
		settled := fixpointDense(t, a, seed)
		closure := a
		for i := 0; i < 6; i++ {
			if closure, err = MulRef(closure, closure); err != nil {
				t.Fatal(err)
			}
		}
		// perturbed copies of the settled columns: one row forgets what
		// it knew, so exactly that node's row of C differs from B.
		forget := func(v int) *Dense {
			d := &Dense{N: n, K: settled.K, Sr: sr, Vals: append([]int64(nil), settled.Vals...)}
			row := d.Row(core.NodeID(v))
			for j := range row {
				row[j] = sr.Zero
			}
			return d
		}
		first, last := forget(0), forget(n-1)
		cases = append(cases,
			voteCase{sr.Name + "/" + name + "dense/changes", func() (*Pass, error) { return NewDensePass(a, seed, false) }, true, -1, -1},
			voteCase{sr.Name + "/" + name + "dense/fixpoint", func() (*Pass, error) { return NewDensePass(a, settled, false) }, false, 0, 0},
			voteCase{sr.Name + "/" + name + "sparse/changes", func() (*Pass, error) { return NewPass(a, a, false) }, true, -1, -1},
			voteCase{sr.Name + "/" + name + "sparse/fixpoint", func() (*Pass, error) { return NewPass(closure, closure, false) }, false, 0, 0},
			// Node 0 speaks in round F itself: one round, n-1 words.
			voteCase{sr.Name + "/" + name + "dense/only-node-0", func() (*Pass, error) { return NewDensePass(a, first, false) }, true, 1, n - 1},
			// Any other lone voter: a ballot, then node 0's n-1 words.
			voteCase{sr.Name + "/" + name + "dense/only-last-node", func() (*Pass, error) { return NewDensePass(a, last, false) }, true, 2, n},
		)
	}
	return cases
}

// TestVoteWhenTheWidestRowIsNeverAskedFor: the round every row is final
// follows from the widest row that actually flows. Vertex 9 is isolated
// — no node multiplies by its row — and owns the only multi-word row of
// B, so the pass falls silent long
// before that row would have drained; the vote must still be taken, in
// the bare pass's last round.
func TestVoteWhenTheWidestRowIsNeverAskedFor(t *testing.T) {
	g, err := graph.LoadEdgeList(strings.NewReader("p 10\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	sr := core.MinPlus()
	a, err := FromGraph(g.WithUnitWeights(), sr, true)
	if err != nil {
		t.Fatal(err)
	}
	b := NewDense(a.N, 48, sr)
	b.Row(0)[0] = 0
	for j := range b.Row(9) {
		b.Row(9)[j] = int64(1 + j)
	}
	want, err := MulDenseRef(a, b)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := NewDensePass(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	voting, err := NewDensePass(a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	voting.vote()
	if len(voting.state[9].packed) < 3 {
		t.Fatalf("row 9 packs into %d words; the fixture needs it several rounds wide", len(voting.state[9].packed))
	}
	bs, vs := runVotePass(t, bare, 1), runVotePass(t, voting, 1)
	if !voting.changed() {
		t.Error("vertex 1 learned its distance to vertex 0, yet the vote reports no change")
	}
	if !slices.Equal(voting.Dense().Vals, want.Vals) {
		t.Error("voting pass computed a different product")
	}
	if dr := vs.Rounds - bs.Rounds; dr < 1 || dr > 2 {
		t.Errorf("vote cost %d rounds over the bare pass's %d, want 1 or 2", dr, bs.Rounds)
	}
}

// TestVoteWithoutAnyRequest covers products in which no node streams
// its row to any other — a diagonal A — so the bare pass is its round 0
// alone, and the single-node clique where nobody is left to tell.
func TestVoteWithoutAnyRequest(t *testing.T) {
	sr := core.MinPlus()
	for _, tc := range []struct {
		name    string
		n       int
		diag    int64
		changed bool
		rounds  int
	}{
		{"identity", 5, sr.One, false, 1},
		{"shift", 5, 3, true, 2},
		{"single-node-identity", 1, sr.One, false, 1},
		{"single-node-shift", 1, 3, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := Identity(tc.n, sr)
			for i := range a.Vals {
				a.Vals[i] = tc.diag
			}
			b := NewDense(tc.n, 2, sr)
			for v := 0; v < tc.n; v++ {
				b.Row(core.NodeID(v))[v%2] = int64(v)
			}
			p, err := NewDensePass(a, b, false)
			if err != nil {
				t.Fatal(err)
			}
			p.vote()
			st := runVotePass(t, p, 1)
			if p.changed() != tc.changed || st.Rounds != tc.rounds {
				t.Errorf("changed() = %v in %d rounds, want %v in %d", p.changed(), st.Rounds, tc.changed, tc.rounds)
			}
			want, err := MulDenseRef(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.Dense().Vals, want.Vals) {
				t.Error("voting pass computed a different product")
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
		u.pass.voters = nil
		for v := range u.pass.state {
			u.pass.state[v].vote = nil
		}
	}
	return pass, err
}

// TestVotesAreBilledToTheSession: what a power's votes cost shows in
// clique.Stats and in the replay digests, inside the bound. On a path
// nothing is skipped, so the run is the fixed-count run plus its votes:
// every squaring but the last votes, and the totals exceed the same
// products run bare — the same semi-naive squarings with their votes
// withdrawn — by at least one round and n-1 words and at most two
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
	if voted.Runs != fixed.Runs || dr < votes || dr > 2*votes || dw < votes*(n-1) || dw > 2*votes*(n-1) {
		t.Errorf("%d voting squarings (%d passes, bare %d) cost %d rounds and %d words over the bare run, want %d..%d rounds and %d..%d words",
			votes, voted.Runs, fixed.Runs, dr, dw, votes, 2*votes, votes*(n-1), 2*votes*(n-1))
	}
}
