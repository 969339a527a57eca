package server

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/pkg/api"
)

// TestConcurrentClientsBitIdentical is the coalescing acceptance test:
// N concurrent clients fire approx-sssp queries at one (graph, eps)
// while the graph's lease is held, so the first query's batch waits at
// the lease and the other N − 1 queue behind it. Every answer must be
// bit-identical to a standalone clique.Session running the
// single-source ApproxKSourceKernel directly, and the queued queries
// must ride exactly ceil((N − 1)/MaxBatch) full batches.
func TestConcurrentClientsBitIdentical(t *testing.T) {
	const (
		n       = 40
		queries = 12
		eps     = 0.5
	)
	g := graph.RandomGNPWeighted(n, 0.15, 9, 5)

	// Oracle rows: one standalone warm session per source, the way a
	// batch-mode user would run the kernel.
	want := make(map[int64][]int64)
	for q := 0; q < queries; q++ {
		src := int64((q * 7) % n)
		if _, ok := want[src]; ok {
			continue
		}
		sess, err := clique.New(g)
		if err != nil {
			t.Fatal(err)
		}
		k := algo.NewApproxKSourceKernel([]core.NodeID{core.NodeID(src)}, hopset.Params{Eps: eps})
		if err := sess.Run(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		want[src] = k.Dist()[0]
		sess.Close()
	}

	const maxBatch = 4
	srv, c := newTestDaemon(t, Options{MaxBatch: maxBatch})
	id := upload(t, c, "swarm", g)
	e := srv.store.get(id)
	release := holdLease(t, srv, e)

	var wg sync.WaitGroup
	resps := make([]api.ApproxSSSPResponse, queries)
	errs := make([]error, queries)
	ask := func(q int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := int64((q * 7) % n)
			resps[q], errs[q] = c.ApproxSSSP(context.Background(), id, src, eps)
		}()
	}
	// The first query forms a batch of one at once, which then waits at
	// the held lease; the rest queue behind it until the lease frees.
	ask(0)
	within(t, "first batch formed", func() bool { return batchesFormed(e, eps) == 1 })
	for q := 1; q < queries; q++ {
		ask(q)
	}
	e.coalsMu.Lock()
	co := e.coals[core.SigBitsFor(eps)]
	e.coalsMu.Unlock()
	admitted(t, co, queries)
	release()
	wg.Wait()

	for q := 0; q < queries; q++ {
		if errs[q] != nil {
			t.Fatalf("query %d: %v", q, errs[q])
		}
		src := int64((q * 7) % n)
		if !reflect.DeepEqual(resps[q].Dist, want[src]) {
			t.Errorf("query %d (source %d): coalesced answer differs from standalone session run", q, src)
		}
	}

	snap := srv.Metrics().Snapshot()
	if snap.BatchedQueries != queries {
		t.Errorf("batched queries = %d, want %d", snap.BatchedQueries, queries)
	}
	runs := uint64(1 + (queries-1+maxBatch-1)/maxBatch)
	if snap.Batches != runs || snap.KernelRuns != runs {
		t.Errorf("batches = %d, kernel runs = %d, want 1 + ceil(%d/%d) = %d each",
			snap.Batches, snap.KernelRuns, queries-1, maxBatch, runs)
	}
	if snap.BatchMax != maxBatch {
		t.Errorf("largest batch = %d, want %d", snap.BatchMax, maxBatch)
	}
	t.Logf("coalesced %d queries into %d batches (max batch %d, %d cache hits)",
		queries, snap.Batches, snap.BatchMax, snap.CacheHits)
}

// TestConcurrentMixedQueryKinds hammers one graph with all three query
// kinds at once: the session pool must serialize cleanly (the engine
// would corrupt state otherwise) and every answer must match the
// oracle.
func TestConcurrentMixedQueryKinds(t *testing.T) {
	g := graph.RandomGNPWeighted(24, 0.25, 9, 13)
	_, c := newTestDaemon(t, Options{})
	id := upload(t, c, "mixed", g)

	refs := make([][]int64, g.N)
	for v := 0; v < g.N; v++ {
		refs[v] = algo.BellmanFordRef(g, core.NodeID(v))
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 24)
	for i := 0; i < 8; i++ {
		wg.Add(3)
		src := int64(i % g.N)
		go func(src int64) {
			defer wg.Done()
			resp, err := c.SSSP(context.Background(), id, src)
			if err == nil && !reflect.DeepEqual(resp.Dist, refs[src]) {
				err = fmt.Errorf("sssp(%d) mismatch", src)
			}
			errCh <- err
		}(src)
		go func(src int64) {
			defer wg.Done()
			resp, err := c.KSource(context.Background(), id, []int64{src, (src + 1) % int64(g.N)}, 0)
			if err == nil && !reflect.DeepEqual(resp.Dist[0], refs[src]) {
				err = fmt.Errorf("ksource(%d) mismatch", src)
			}
			errCh <- err
		}(src)
		go func(src int64) {
			defer wg.Done()
			resp, err := c.ApproxSSSP(context.Background(), id, src, 0.25)
			if err == nil {
				for v, d := range resp.Dist {
					exact := refs[src][v]
					if (exact < 0) != (d < 0) || (exact >= 0 && d < exact) {
						err = fmt.Errorf("approx(%d) vertex %d: %d vs exact %d", src, v, d, exact)
						break
					}
				}
			}
			errCh <- err
		}(src)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Error(err)
		}
	}
}
