package matmul

import (
	"context"
	"slices"
	"sync"
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

// TestRelaxationAcrossRanks runs a changed-entries relaxation on a
// 2-rank socket-unix clique: each rank starts its accumulators from B,
// but only its own nodes' rows are accumulated there, so the gather
// must overwrite the other rank's B-initialised rows for every rank to
// hold the iterated reference.
func TestRelaxationAcrossRanks(t *testing.T) {
	const n, products, ranks = 24, 5, 2
	sr := core.MinPlus()
	s, err := FromGraph(graph.RandomGNP(n, 0.1, 5).WithUniformRandomWeights(2, 9), sr, true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	b := Indicator(n, []core.NodeID{1, 12, 20}, sr)
	want := relaxRef(t, s, b, products)
	trs, err := engine.NewTransportCluster("socket-unix", ranks)
	if err != nil {
		t.Fatalf("NewTransportCluster: %v", err)
	}
	got := make([]*Dense, ranks)
	errs := make([]error, ranks)
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
			rx := NewRelaxation(s, b, products)
			if errs[rank] = sess.Run(context.Background(), rx); errs[rank] == nil {
				got[rank], _ = rx.Result().(*Dense)
			}
		}(i, tr)
	}
	wg.Wait()
	for rank := range got {
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
		if got[rank] == nil || !slices.Equal(got[rank].Vals, want.Vals) {
			t.Errorf("rank %d: columns differ from iterated MulDenseRef", rank)
		}
	}
}
