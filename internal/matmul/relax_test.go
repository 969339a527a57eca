package matmul

import (
	"context"
	"slices"
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
// 1..β returns exactly the columns β products of MulDenseRef do, over
// every semiring. A reflexive S streams only the entries the product
// before changed from its second product on; a non-reflexive S, where
// that would be wrong (B ← S ⊗ B is not monotone without the One
// diagonal), keeps streaming whole rows.
func TestRelaxationMatchesIteratedRef(t *testing.T) {
	const n, beta = 40, 8
	sources := []core.NodeID{0, 7, 19, 33}
	for _, sr := range core.AllSemirings() {
		g := graph.RandomGNP(n, 0.08, 3).WithUniformRandomWeights(2, 20)
		for _, reflexive := range []bool{true, false} {
			s, err := FromGraph(g, sr, reflexive)
			if err != nil {
				t.Fatalf("FromGraph(%s): %v", sr.Name, err)
			}
			for products := 1; products <= beta; products++ {
				b := Indicator(n, sources, sr)
				rx := NewRelaxation(s, b, products)
				if _, err := runProduct(n, rx); err != nil {
					t.Fatalf("%s reflexive=%v products=%d: %v", sr.Name, reflexive, products, err)
				}
				got, want := rx.Result().(*Dense), relaxRef(t, s, b, products)
				if !slices.Equal(got.Vals, want.Vals) {
					t.Fatalf("%s reflexive=%v products=%d: columns differ from iterated MulDenseRef", sr.Name, reflexive, products)
				}
				if tookDelta := rx.prev != nil; tookDelta != reflexive {
					t.Errorf("%s reflexive=%v products=%d: kept the previous columns = %v", sr.Name, reflexive, products, tookDelta)
				}
			}
		}
	}
}

// requestCounter runs a Relaxation with every node wrapped to count the
// zero-payload words — requests; no data word or ballot is 0 — it
// receives, one total per product.
type requestCounter struct {
	*Relaxation
	requests []*atomic.Int64
}

func (c *requestCounter) Next(g *graph.CSR) (clique.Pass, error) {
	pass, err := c.Relaxation.Next(g)
	if err != nil || pass.Nodes == nil {
		return pass, err
	}
	count := new(atomic.Int64)
	c.requests = append(c.requests, count)
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

// TestRelaxationAsksOnce: a Relaxation's first product carries one
// request per off-diagonal nonzero of S — nnz(S) - n over a reflexive
// S — and every later product none, over every semiring, with the
// columns still those of iterated MulDenseRef. Each node's recorded
// requesters are the ones a restore rebuilds from S.
func TestRelaxationAsksOnce(t *testing.T) {
	const n, products = 40, 6
	sources := []core.NodeID{0, 7, 19, 33}
	for _, sr := range core.AllSemirings() {
		g := graph.RandomGNP(n, 0.06, 4).WithUniformRandomWeights(2, 20)
		for _, reflexive := range []bool{true, false} {
			s, err := FromGraph(g, sr, reflexive)
			if err != nil {
				t.Fatalf("FromGraph(%s): %v", sr.Name, err)
			}
			offDiag := s.NNZ()
			if reflexive {
				offDiag -= n
			}
			b := Indicator(n, sources, sr)
			rc := &requestCounter{Relaxation: NewRelaxation(s, b, products)}
			if _, err := runProduct(n, rc); err != nil {
				t.Fatalf("%s reflexive=%v: %v", sr.Name, reflexive, err)
			}
			if len(rc.requests) < 3 {
				t.Fatalf("%s reflexive=%v: %d products ran; the fixture needs a few", sr.Name, reflexive, len(rc.requests))
			}
			for i, c := range rc.requests {
				want := int64(0)
				if i == 0 {
					want = int64(offDiag)
				}
				if got := c.Load(); got != want {
					t.Errorf("%s reflexive=%v product %d: %d requests, want %d", sr.Name, reflexive, i+1, got, want)
				}
			}
			got, want := rc.Result().(*Dense), relaxRef(t, s, b, products)
			if !slices.Equal(got.Vals, want.Vals) {
				t.Errorf("%s reflexive=%v: columns differ from iterated MulDenseRef", sr.Name, reflexive)
			}
			rebuilt := requesters(s)
			for v := range rebuilt {
				if !slices.Equal(rc.reqs[v], rebuilt[v]) {
					t.Fatalf("%s reflexive=%v: node %d recorded requesters %v, S's column support is %v",
						sr.Name, reflexive, v, rc.reqs[v], rebuilt[v])
				}
			}
		}
	}
}

// TestRelaxationAcrossRanks runs a changed-entries relaxation on
// multi-rank socket-unix cliques: each rank starts its accumulators
// from B, but only its own nodes' rows are accumulated there, so the
// gather must overwrite the other ranks' B-initialised rows for every
// rank to hold the iterated reference. Each rank keeps the requester
// lists of the nodes it executes and no others; with more ranks than
// nodes, an idle rank records none at all.
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
			b := Indicator(n, tc.sources, sr)
			want := relaxRef(t, s, b, tc.products)
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
					rxs[rank] = NewRelaxation(s, b, tc.products)
					parts[rank][0], parts[rank][1] = sess.Partition()
					errs[rank] = sess.Run(context.Background(), rxs[rank])
				}(i, tr)
			}
			wg.Wait()
			rebuilt := requesters(s)
			idle := 0
			for rank, rx := range rxs {
				if errs[rank] != nil {
					t.Fatalf("rank %d: %v", rank, errs[rank])
				}
				if got, _ := rx.Result().(*Dense); got == nil || !slices.Equal(got.Vals, want.Vals) {
					t.Errorf("rank %d: columns differ from iterated MulDenseRef", rank)
				}
				lo, hi := parts[rank][0], parts[rank][1]
				if lo == hi {
					idle++
				}
				for v, reqs := range rx.reqs {
					if mine := lo <= v && v < hi; mine && !slices.Equal(reqs, rebuilt[v]) || !mine && reqs != nil {
						t.Errorf("rank %d (nodes [%d, %d)): node %d's requester list is %v", rank, lo, hi, v, reqs)
					}
				}
			}
			if tc.ranks > n && idle == 0 {
				t.Errorf("%d ranks over %d nodes left no rank idle", tc.ranks, n)
			}
		})
	}
}
