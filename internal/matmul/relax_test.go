package matmul

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// relaxRef iterates B ← S ⊗ B `products` times with MulDenseRef.
func relaxRef(t *testing.T, s *Matrix, b *Dense, products int) *Dense {
	t.Helper()
	for i := 0; i < products; i++ {
		var err error
		if b, err = MulDenseRef(s, b); err != nil {
			t.Fatalf("MulDenseRef: %v", err)
		}
	}
	return b
}

// TestRelaxationMatchesIteratedRef: a Relaxation of every product count
// 0..β returns exactly the columns β products of MulDenseRef do from the
// sources' indicator columns, over every semiring, with distinct and
// with repeated sources. The first product is local, so a Relaxation
// runs at most β-1 engine passes and none for β <= 1, and streams only
// the entries the product before changed from its first engine product
// on.
func TestRelaxationMatchesIteratedRef(t *testing.T) {
	const n, beta = 40, 8
	for _, sr := range core.AllSemirings() {
		g := graph.RandomGNP(n, 0.08, 3).WithUniformRandomWeights(2, 20)
		s, err := FromGraph(g, sr, true)
		if err != nil {
			t.Fatalf("FromGraph(%s): %v", sr.Name, err)
		}
		for _, sources := range [][]core.NodeID{{0, 7, 19, 33}, {19, 7, 19, 0, 7}} {
			for products := 0; products <= beta; products++ {
				name := fmt.Sprintf("%s sources=%v products=%d", sr.Name, sources, products)
				rx := NewRelaxation(s, sources, products)
				st, err := clique.NewSize(n)
				if err != nil {
					t.Fatal(err)
				}
				err = st.Run(context.Background(), rx)
				stats := st.Stats()
				st.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, want := rx.Result().(*Dense), relaxRef(t, s, Indicator(n, sources, sr), products)
				if !slices.Equal(got.Vals, want.Vals) {
					t.Fatalf("%s: columns differ from iterated MulDenseRef", name)
				}
				if stats.Runs > max(products-1, 0) {
					t.Errorf("%s: %d engine passes; the first product is local", name, stats.Runs)
				}
				if tookDelta := rx.prev != nil; tookDelta != (products > 0) {
					t.Errorf("%s: kept the previous columns = %v", name, tookDelta)
				}
			}
		}
	}
}

// TestRelaxationFromIsolatedSources: when every source is isolated the
// local first product changes nothing, and the next product, one engine
// pass, confirms the fixpoint without a word. Over every semiring.
func TestRelaxationFromIsolatedSources(t *testing.T) {
	g, err := graph.LoadEdgeList(strings.NewReader("p 8\n0 1 4\n1 2 3\n2 3 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	sources := []core.NodeID{5, 7, 5}
	for _, sr := range core.AllSemirings() {
		s, err := FromGraph(g, sr, true)
		if err != nil {
			t.Fatal(err)
		}
		rx := NewRelaxation(s, sources, 6)
		sess, err := clique.NewSize(g.N)
		if err != nil {
			t.Fatal(err)
		}
		err = sess.Run(context.Background(), rx)
		st := sess.Stats()
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := relaxRef(t, s, Indicator(g.N, sources, sr), 6)
		if got := rx.Result().(*Dense); !slices.Equal(got.Vals, want.Vals) {
			t.Errorf("%s: columns differ from iterated MulDenseRef", sr.Name)
		}
		if st.Runs != 1 || st.Engine.TotalMsgs != 0 {
			t.Errorf("%s: %d passes and %d words, want the one silent pass that confirms the fixpoint",
				sr.Name, st.Runs, st.Engine.TotalMsgs)
		}
	}
}

// requestCounter runs a Relaxation with every node wrapped to count the
// zero-payload words — a vote's words alone (no data word is 0), and
// requests — it receives, one total per product, and records whether
// each product votes.
type requestCounter struct {
	*Relaxation
	requests []*atomic.Int64
	votes    []bool
}

func (c *requestCounter) Next(g *graph.CSR) (clique.Pass, error) {
	pass, err := c.Relaxation.Next(g)
	if err != nil || pass.Nodes == nil {
		return pass, err
	}
	count := new(atomic.Int64)
	c.requests, c.votes = append(c.requests, count), append(c.votes, c.pass.voting)
	wrapped := make([]engine.Node, len(pass.Nodes))
	for v, nd := range pass.Nodes {
		wrapped[v] = &zeroCounter{Node: nd, count: count}
	}
	pass.Nodes = wrapped
	return pass, nil
}

// zeroCounter adds the zero-payload words of every inbox to count.
type zeroCounter struct {
	engine.Node
	count *atomic.Int64
}

func (z *zeroCounter) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	for _, m := range inbox {
		if m.Payload == 0 {
			z.count.Add(1)
		}
	}
	return z.Node.Round(ctx, r, inbox)
}

// TestRelaxationNeverAsks: no product of a Relaxation carries a request
// word — every node streams its row to the columns of its own row of S
// — over every semiring, with the columns still those of iterated
// MulDenseRef: the only words 0 are a voting product's, at most 2(n-1).
func TestRelaxationNeverAsks(t *testing.T) {
	const n, products = 40, 6
	sources := []core.NodeID{0, 7, 19, 33}
	for _, sr := range core.AllSemirings() {
		g := graph.RandomGNP(n, 0.06, 4).WithUniformRandomWeights(2, 20)
		s, err := FromGraph(g, sr, true)
		if err != nil {
			t.Fatalf("FromGraph(%s): %v", sr.Name, err)
		}
		rc := &requestCounter{Relaxation: NewRelaxation(s, sources, products)}
		if _, err := runProduct(n, rc); err != nil {
			t.Fatalf("%s: %v", sr.Name, err)
		}
		if len(rc.requests) < 3 {
			t.Fatalf("%s: %d products ran; the fixture needs a few", sr.Name, len(rc.requests))
		}
		for i, c := range rc.requests {
			most := int64(0)
			if rc.votes[i] {
				most = 2 * (n - 1)
			}
			if got := c.Load(); got > most {
				t.Errorf("%s engine product %d: %d words 0, more than its vote's %d", sr.Name, i+1, got, most)
			}
		}
		got, want := rc.Result().(*Dense), relaxRef(t, s, Indicator(n, sources, sr), products)
		if !slices.Equal(got.Vals, want.Vals) {
			t.Errorf("%s: columns differ from iterated MulDenseRef", sr.Name)
		}
	}
}

// TestRelaxationAcrossRanks runs a changed-entries relaxation on
// multi-rank socket-unix cliques: each rank starts its accumulators
// from B, but only its own nodes' rows are accumulated there, so the
// gather must overwrite the other ranks' B-initialised rows for every
// rank to hold the iterated reference; with more ranks than nodes, an
// idle rank still ends with the columns.
func TestRelaxationAcrossRanks(t *testing.T) {
	sr := core.MinPlus()
	for _, tc := range []struct {
		name            string
		g               *graph.CSR
		sources         []core.NodeID
		products, ranks int
	}{
		{"n24-ranks2", graph.RandomGNP(24, 0.1, 5).WithUniformRandomWeights(2, 9), []core.NodeID{1, 12, 20}, 5, 2},
		{"n3-ranks5", graph.Path(3).WithUniformRandomWeights(2, 9), []core.NodeID{0}, 4, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N
			s, err := FromGraph(tc.g, sr, true)
			if err != nil {
				t.Fatalf("FromGraph: %v", err)
			}
			want := relaxRef(t, s, Indicator(n, tc.sources, sr), tc.products)
			trs, err := engine.NewTransportCluster("socket-unix", tc.ranks)
			if err != nil {
				t.Fatalf("NewTransportCluster: %v", err)
			}
			rxs := make([]*Relaxation, tc.ranks)
			parts := make([][2]int, tc.ranks)
			errs := make([]error, tc.ranks)
			var wg sync.WaitGroup
			for i, tr := range trs {
				wg.Add(1)
				go func(rank int, tr engine.Transport) {
					defer wg.Done()
					sess, err := clique.NewSize(n, clique.WithTransport(tr))
					if err != nil {
						tr.Close()
						errs[rank] = err
						return
					}
					defer sess.Close()
					rxs[rank] = NewRelaxation(s, tc.sources, tc.products)
					parts[rank][0], parts[rank][1] = sess.Partition()
					errs[rank] = sess.Run(context.Background(), rxs[rank])
				}(i, tr)
			}
			wg.Wait()
			idle := 0
			for rank, rx := range rxs {
				if errs[rank] != nil {
					t.Fatalf("rank %d: %v", rank, errs[rank])
				}
				if got, _ := rx.Result().(*Dense); got == nil || !slices.Equal(got.Vals, want.Vals) {
					t.Errorf("rank %d: columns differ from iterated MulDenseRef", rank)
				}
				if parts[rank][0] == parts[rank][1] {
					idle++
				}
			}
			if tc.ranks > n && idle == 0 {
				t.Errorf("%d ranks over %d nodes left no rank idle", tc.ranks, n)
			}
		})
	}
}

// relaxWatch drives a Relaxation and runs every node of its 2D products
// under the cube audit (cubeAudit, linkCheck), recording for each pass
// whether it ran by the cube, whether its cube nodes held S's blocks,
// and, once harvested, whether it changed the columns.
type relaxWatch struct {
	*Relaxation
	t                     *testing.T
	cube, held, unchanged []bool
}

func (w *relaxWatch) Next(g *graph.CSR) (clique.Pass, error) {
	if w.pass != nil {
		w.unchanged = append(w.unchanged, !w.pass.changed())
	}
	pass, err := w.Relaxation.Next(g)
	if err != nil || pass.Nodes == nil {
		return pass, err
	}
	cb := w.pass.cb
	w.cube, w.held = append(w.cube, cb != nil), append(w.held, cb != nil && cb.held)
	if cb != nil {
		nodes := make([]engine.Node, len(pass.Nodes))
		for v, nd := range pass.Nodes {
			nodes[v] = &cubeAudit{Node: &linkCheck{Node: nd, perSrc: make([]int, len(pass.Nodes))}, cb: cb}
		}
		pass.Nodes = nodes
	}
	return pass, nil
}

// relaxFixture returns a reflexive S over sr on a dense G(n, p) with
// weights 2..60, so that its paths take several hops and it prices as a
// 2D relaxation (p = 0.6, or 0.9 below n = 16, where blocks are few),
// and sources spread over [0, n), k of them.
func relaxFixture(t *testing.T, n, k int, sr core.Semiring) (*Matrix, []core.NodeID) {
	t.Helper()
	p := 0.6
	if n < 16 {
		p = 0.9
	}
	s, err := FromGraph(graph.RandomGNP(n, p, int64(n)).WithUniformRandomWeights(2, 60), sr, true)
	if err != nil {
		t.Fatal(err)
	}
	if relaxPlan(s) == nil {
		t.Fatalf("n = %d: the fixture prices as row-pull", n)
	}
	sources := make([]core.NodeID, k)
	for j := range sources {
		sources[j] = core.NodeID((j*7 + 3) % n)
	}
	return s, sources
}

// TestRelaxation2DMatchesRef: a Relaxation over an S that prices as 2D
// runs its engine products by the 2D block partition, at n = 9, 28, 65
// and 131 (q = 3, 5, 8 and 11 blocks, most of them not dividing n) and
// k = 1, 2 and 16 columns, over (min,+), (max,min), booleans and a
// generic semiring, and returns exactly iterated MulDenseRef's columns.
// Its first product ships S's blocks; a later one ships only Δ; the last
// confirms the fixpoint. Every pass bills what the traffic model
// (predictRelax2D) gives and passes the cube audit: no node at or past
// q² takes a phase-1 word or sends a partial row, no link carries two
// words a round, and no word of S reaches a product whose cube nodes
// hold S.
func TestRelaxation2DMatchesRef(t *testing.T) {
	shipped, held := 0, 0
	for _, sr := range append(core.AllSemirings(), generic(core.MinPlus())) {
		for _, n := range []int{9, 28, 65, 131} {
			for _, k := range []int{1, 2, 16} {
				name := fmt.Sprintf("%s %v/n%d/k%d", sr.Name, sr.Kind(), n, k)
				s, sources := relaxFixture(t, n, k, sr)
				w := &relaxWatch{Relaxation: NewRelaxation(s, sources, n), t: t}
				m := newLoopModel(t, w)
				var got []passTraffic
				if _, err := runProduct(n, m, trafficHook(&got)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := relaxRef(t, s, Indicator(n, sources, sr), n); !slices.Equal(w.Result().(*Dense).Vals, want.Vals) {
					t.Fatalf("%s: columns differ from iterated MulDenseRef", name)
				}
				if !slices.Equal(got, m.want) {
					t.Errorf("%s: per-pass rounds/words %v, model %v", name, got, m.want)
				}
				if len(w.cube) == 0 || !w.cube[0] || w.held[0] {
					t.Errorf("%s: the first engine product does not ship S's blocks (cube %v, held %v)", name, w.cube, w.held)
				}
				for i := 1; i < len(w.held); i++ {
					if !w.held[i] {
						t.Errorf("%s: product %d ships S's blocks again", name, i+1)
					}
					held++
				}
				if last := len(w.unchanged) - 1; last < 0 || !w.unchanged[last] {
					t.Errorf("%s: the last product does not confirm the fixpoint", name)
				}
				shipped++
			}
		}
	}
	if held == 0 {
		t.Error("no product ran while the cube nodes held S's blocks")
	}
	t.Logf("%d relaxations, %d held products", shipped, held)
}
