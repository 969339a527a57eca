package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
	"github.com/paper-repo-growth/doryp20/pkg/api"
	"github.com/paper-repo-growth/doryp20/pkg/client"
)

// newTestDaemon serves a fresh Server over httptest and returns the
// pkg/client handle — so every endpoint test also round-trips the
// client library.
func newTestDaemon(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

// upload serializes g as edge-list text and loads it under name.
func upload(t *testing.T, c *client.Client, name string, g *graph.CSR) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	info, err := c.LoadGraph(context.Background(), name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != g.N || info.Edges != g.NumEdges() || info.Weighted != g.Weighted() {
		t.Fatalf("uploaded info %+v does not match graph (n=%d m=%d w=%v)",
			info, g.N, g.NumEdges(), g.Weighted())
	}
	return info.ID
}

// batchesFormed is how many batches e's coalescer for eps has formed.
func batchesFormed(e *graphEntry, eps float64) uint64 {
	e.coalsMu.Lock()
	c := e.coals[core.SigBitsFor(eps)]
	e.coalsMu.Unlock()
	if c == nil {
		return 0
	}
	runs, _ := c.counts()
	return runs
}

// TestGraphLifecycle round-trips load/list/get/delete through
// pkg/client, including duplicate and not-found errors.
func TestGraphLifecycle(t *testing.T) {
	_, c := newTestDaemon(t, Options{})
	ctx := context.Background()
	g := graph.RandomGNPWeighted(16, 0.3, 9, 1)

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	id := upload(t, c, "lifecycle", g)
	if id != "lifecycle" {
		t.Fatalf("id = %q, want lifecycle", id)
	}

	// Duplicate name → 409.
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	_, err := c.LoadGraph(ctx, "lifecycle", &buf)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate load error = %v, want 409 APIError", err)
	}

	// Auto-named upload.
	autoID := upload(t, c, "", graph.Path(5))
	list, err := c.ListGraphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Graphs) != 2 {
		t.Fatalf("list has %d graphs, want 2", len(list.Graphs))
	}

	info, err := c.GetGraph(ctx, id)
	if err != nil || info.ID != id {
		t.Fatalf("get %q: %+v, %v", id, info, err)
	}
	if _, err := c.GetGraph(ctx, "nope"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("get unknown: %v, want 404", err)
	}

	if err := c.DeleteGraph(ctx, autoID); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteGraph(ctx, autoID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("double delete: %v, want 404", err)
	}
	list, _ = c.ListGraphs(ctx)
	if len(list.Graphs) != 1 {
		t.Fatalf("after delete, list has %d graphs, want 1", len(list.Graphs))
	}
}

// TestQueriesMatchReference checks every query kind against the
// sequential Bellman-Ford oracle through the full HTTP + client stack.
func TestQueriesMatchReference(t *testing.T) {
	_, c := newTestDaemon(t, Options{})
	ctx := context.Background()
	g := graph.RandomGNPWeighted(24, 0.25, 9, 7)
	id := upload(t, c, "ref", g)

	want0 := algo.BellmanFordRef(g, 0)
	want5 := algo.BellmanFordRef(g, 5)

	sssp, err := c.SSSP(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sssp.Dist, want0) {
		t.Error("sssp dist does not match BellmanFordRef")
	}

	ks, err := c.KSource(ctx, id, []int64{0, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ks.H < 1 {
		t.Errorf("ksource default h = %d, want >= 1", ks.H)
	}
	if !reflect.DeepEqual(ks.Dist[0], want0) || !reflect.DeepEqual(ks.Dist[1], want5) {
		t.Error("ksource rows do not match BellmanFordRef")
	}

	// Approximate distances respect the (1+eps) bound against the oracle.
	const eps = 0.5
	ap, err := c.ApproxSSSP(ctx, id, 5, eps)
	if err != nil {
		t.Fatal(err)
	}
	if ap.CacheHit {
		t.Error("first approx query reported a hopset cache hit")
	}
	for v, d := range ap.Dist {
		exact := want5[v]
		if (exact < 0) != (d < 0) {
			t.Fatalf("vertex %d: approx %d vs exact %d disagree on reachability", v, d, exact)
		}
		if exact >= 0 && (d < exact || float64(d) > (1+eps)*float64(exact)+1e-9) {
			t.Errorf("vertex %d: approx %d outside [%d, (1+eps)*%d]", v, d, exact, exact)
		}
	}

	// Bad requests surface as 4xx.
	var apiErr *client.APIError
	if _, err := c.SSSP(ctx, id, 99); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("out-of-range source: %v, want 400", err)
	}
	if _, err := c.KSource(ctx, id, nil, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("empty sources: %v, want 400", err)
	}
	if _, err := c.ApproxSSSP(ctx, id, 0, -1); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("negative eps: %v, want 400", err)
	}
}

// TestHopsetCacheSteadyState is the cache acceptance test: the second
// approx query at the same (graph, eps) is served from the cached
// hopset-augmented adjacency — zero stage-1 passes, strictly cheaper
// than the first query, bit-identical distances — and /metrics records
// the hit.
func TestHopsetCacheSteadyState(t *testing.T) {
	srv, c := newTestDaemon(t, Options{})
	ctx := context.Background()
	g := graph.RandomGNPWeighted(32, 0.2, 9, 3)
	id := upload(t, c, "cached", g)
	const eps = 0.25

	first, err := c.ApproxSSSP(ctx, id, 4, eps)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first query must construct the hopset (cache miss)")
	}
	second, err := c.ApproxSSSP(ctx, id, 4, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second query at same (graph, eps) must hit the hopset cache")
	}
	if !reflect.DeepEqual(second.Dist, first.Dist) {
		t.Error("cached fast path is not bit-identical to the full pipeline")
	}
	if second.Beta != first.Beta {
		t.Errorf("beta changed across cache: %d vs %d", second.Beta, first.Beta)
	}

	// Zero stage-1 work: the cached run spends at most the stage-2
	// relaxation products, and exactly what a standalone RelaxKernel
	// spends on the same augmented matrix and source.
	hs, err := hopset.ConstructRef(g, hopset.Params{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := hopset.Augment(hs.Base, hs)
	if err != nil {
		t.Fatal(err)
	}
	// The cache holds the matrix the pipeline's stage 2 relaxed over,
	// which is exactly the augmented adjacency.
	e := srv.store.get(id)
	l, err := srv.pool.acquire(context.Background(), e.info.Version, e.g)
	if err != nil {
		t.Fatal(err)
	}
	cached := e.hopsets[core.SigBitsFor(eps)].aug
	l.release()
	if cached.N != aug.N || cached.Sr.Name != aug.Sr.Name || !slices.Equal(cached.Rows, aug.Rows) ||
		!slices.Equal(cached.Cols, aug.Cols) || !slices.Equal(cached.Vals, aug.Vals) {
		t.Error("cached matrix differs from hopset.Augment(hs.Base, hs)")
	}
	maxPasses := algo.RelaxProducts(first.Beta, g.N)
	relax := algo.NewRelaxKernel(aug, []core.NodeID{4}, maxPasses)
	sess, err := clique.NewSize(g.N)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(ctx, relax); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); second.Passes != st.Runs || second.Passes > maxPasses {
		t.Errorf("cached passes = %d, want the standalone relaxation's %d (at most %d)", second.Passes, st.Runs, maxPasses)
	}
	if held, _ := heldRelaxation(t, g, 4, eps); second.Passes != held.Runs || second.Rounds != held.Engine.Rounds {
		t.Errorf("cached passes/rounds = %d/%d, want those of a relaxation from the pipeline's plan, %d/%d",
			second.Passes, second.Rounds, held.Runs, held.Engine.Rounds)
	}
	if !reflect.DeepEqual(second.Dist, relax.Dist()[0]) {
		t.Error("cached fast path differs from a standalone relaxation over ConstructRef's hopset")
	}
	if second.Passes >= first.Passes {
		t.Errorf("cached passes %d not cheaper than full pipeline %d", second.Passes, first.Passes)
	}
	if second.Rounds >= first.Rounds {
		t.Errorf("cached rounds %d not cheaper than full pipeline %d", second.Rounds, first.Rounds)
	}

	snap := srv.Metrics().Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("cache counters (hits=%d, misses=%d), want (1, 1)", snap.CacheHits, snap.CacheMisses)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "ccserve_hopset_cache_hits_total 1\n") {
		t.Error("/metrics does not report the hopset cache hit")
	}

	// A different eps is its own cache line.
	other, err := c.ApproxSSSP(ctx, id, 4, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Error("different eps must not hit the eps=0.25 cache line")
	}
}

// heldRelaxation runs, on a fresh session over g, the approximate
// pipeline from src and then a RelaxKernel over its augmented matrix
// from the pipeline's plan, as a cache hit runs it, and returns what
// the second bills, as Stats with that kernel's passes, rounds and
// words, and its distances.
func heldRelaxation(t *testing.T, g *graph.CSR, src core.NodeID, eps float64) (clique.Stats, []int64) {
	t.Helper()
	sess, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	full := algo.NewApproxKSourceKernel([]core.NodeID{src}, hopset.Params{Eps: eps})
	if err := sess.Run(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	before := sess.Stats()
	relax := &zeroWords{Kernel: algo.NewRelaxKernel(full.Augmented(), []core.NodeID{src},
		algo.RelaxProducts(full.Hopset().Beta, g.N), full.Plan())}
	if err := sess.Run(context.Background(), relax); err != nil {
		t.Fatal(err)
	}
	if full.Plan() == nil {
		t.Fatal("the augmented matrix prices as row-pull; the fixture must exercise the 2D relaxation")
	}
	st := sess.Stats()
	st.Runs -= before.Runs
	st.Engine.Rounds -= before.Engine.Rounds
	st.Engine.TotalMsgs -= before.Engine.TotalMsgs
	if n, most := relax.count.Load(), uint64(2*(g.N-1)*st.Runs); uint64(n) > most {
		t.Errorf("the relaxation carried %d words 0, more than its votes' %d", n, most)
	}
	return st, relax.Kernel.(*algo.RelaxKernel).Dist()[0]
}

// zeroWords wraps every node of every pass its kernel runs to count the
// words it receives whose payload is 0: a vote's words alone (no packed
// data word is 0), and no request.
type zeroWords struct {
	clique.Kernel
	count atomic.Int64
}

func (z *zeroWords) Next(g *graph.CSR) (clique.Pass, error) {
	pass, err := z.Kernel.Next(g)
	if err != nil || pass.Nodes == nil {
		return pass, err
	}
	wrapped := make([]engine.Node, len(pass.Nodes))
	for v, nd := range pass.Nodes {
		wrapped[v] = &zeroCounter{Node: nd, count: &z.count}
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

// TestCacheHitQueryBills pins what one cache-hit approx-sssp query — the
// daemon's steady state — bills on a fixed graph: 2 passes, 7 rounds,
// 877 words. The relaxation's first product is local (the source's
// column of the cached augmented matrix, read off each node's own row),
// so the query runs one pass fewer than it has products, as the
// reference iteration counts them. The cache holds stage 2's plan with
// the augmented matrix, and the session's cube nodes hold its blocks,
// so each product runs by the 2D block partition and ships only Δ and
// partial rows: exactly what a relaxation from the pipeline's plan bills
// on a fresh session, and fewer words than one that ships the blocks,
// with the pipeline's distances. Before the first product became local
// and the request round went, this query billed 3 passes, 11 rounds and
// 5,361 words; by row-pull, 2, 6 and 2,646.
func TestCacheHitQueryBills(t *testing.T) {
	srv, c := newTestDaemon(t, Options{})
	ctx := context.Background()
	g := graph.RandomGNPWeighted(64, 0.04, 30, 2)
	id := upload(t, c, "steady", g)
	const eps, src = 0.25, 3
	cold, err := c.ApproxSSSP(ctx, id, src, eps)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Metrics().Snapshot().Words
	hit, err := c.ApproxSSSP(ctx, id, src, eps)
	if err != nil {
		t.Fatal(err)
	}
	words := srv.Metrics().Snapshot().Words - before
	if !hit.CacheHit {
		t.Fatal("the second query at the same (graph, eps) must hit the hopset cache")
	}
	if hit.Passes != 2 || hit.Rounds != 7 || words != 877 {
		t.Errorf("cache hit billed %d passes, %d rounds, %d words; pinned 2, 7, 877", hit.Passes, hit.Rounds, words)
	}
	if !reflect.DeepEqual(hit.Dist, cold.Dist) {
		t.Error("the cache hit's distances differ from the full pipeline's")
	}

	e := srv.store.get(id)
	l, err := srv.pool.acquire(ctx, e.info.Version, e.g)
	if err != nil {
		t.Fatal(err)
	}
	hc := e.hopsets[core.SigBitsFor(eps)]
	l.release()
	if hc.plan == nil {
		t.Fatal("the cache holds no plan for the augmented matrix")
	}
	// The products the reference iteration runs: until one changes
	// nothing (that one included) or the bound is reached.
	products := 0
	for b := matmul.Indicator(g.N, []core.NodeID{src}, core.MinPlus()); products < hc.products; {
		next, err := matmul.MulDenseRef(hc.aug, b)
		if err != nil {
			t.Fatal(err)
		}
		products++
		if slices.Equal(next.Vals, b.Vals) {
			break
		}
		b = next
	}
	if hit.Passes != products-1 {
		t.Errorf("cache hit ran %d passes for %d products; the first is local", hit.Passes, products)
	}
	held, dist := heldRelaxation(t, g, src, eps)
	if held.Runs != hit.Passes || held.Engine.Rounds != hit.Rounds || held.Engine.TotalMsgs != words {
		t.Errorf("a relaxation from the pipeline's plan billed %d/%d/%d passes/rounds/words, the cache hit %d/%d/%d",
			held.Runs, held.Engine.Rounds, held.Engine.TotalMsgs, hit.Passes, hit.Rounds, words)
	}
	if !reflect.DeepEqual(dist, hit.Dist) {
		t.Error("a relaxation from the pipeline's plan returns other distances than the cache hit")
	}
	sess, err := clique.NewSize(g.N)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(ctx, algo.NewRelaxKernel(hc.aug, []core.NodeID{src}, hc.products)); err != nil {
		t.Fatal(err)
	}
	if shipped := sess.Stats().Engine.TotalMsgs; shipped <= words {
		t.Errorf("a relaxation that ships S's blocks billed %d words, the cache hit %d", shipped, words)
	}
}

// TestHopsetCacheSharedAcrossEps sweeps 1 000 distinct ε that all round
// weights to the same significant bits (SigBitsFor = 3 on [0.26, 0.49]):
// the sweep builds one hopset, shares one admission queue, echoes each
// caller's own ε, and every answer is bit-identical to a fresh
// standalone ε = 0.3 pipeline run.
func TestHopsetCacheSharedAcrossEps(t *testing.T) {
	srv, c := newTestDaemon(t, Options{})
	ctx := context.Background()
	g := graph.RandomGNPWeighted(32, 0.2, 40, 5)
	id := upload(t, c, "sweep", g)

	fresh := algo.NewApproxSSSPKernel(4, hopset.Params{Eps: 0.3})
	sess, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(ctx, fresh); err != nil {
		t.Fatal(err)
	}

	const sweep = 1000
	for i := 0; i < sweep; i++ {
		eps := 0.26 + 0.23*float64(i)/(sweep-1)
		if core.SigBitsFor(eps) != core.SigBitsFor(0.3) {
			t.Fatalf("eps %v does not round like 0.3", eps)
		}
		resp, err := c.ApproxSSSP(ctx, id, 4, eps)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Eps != eps {
			t.Fatalf("response echoes eps %v, caller sent %v", resp.Eps, eps)
		}
		if resp.CacheHit != (i > 0) {
			t.Fatalf("query %d (eps %v): cache hit = %v", i, eps, resp.CacheHit)
		}
		if !reflect.DeepEqual(resp.Dist, fresh.Dist()) {
			t.Fatalf("query %d (eps %v) differs from a fresh eps = 0.3 run", i, eps)
		}
	}

	e := srv.store.get(id)
	l, err := srv.pool.acquire(context.Background(), e.info.Version, e.g)
	if err != nil {
		t.Fatal(err)
	}
	entries := len(e.hopsets)
	l.release()
	e.coalsMu.Lock()
	queues := len(e.coals)
	e.coalsMu.Unlock()
	if entries != 1 || queues != 1 {
		t.Errorf("sweep left %d hopset cache entries and %d coalescers, want 1 and 1", entries, queues)
	}
	if snap := srv.Metrics().Snapshot(); snap.CacheMisses != 1 || snap.CacheHits != sweep-1 {
		t.Errorf("cache counters (hits=%d, misses=%d), want (%d, 1)", snap.CacheHits, snap.CacheMisses, sweep-1)
	}
}

// TestClosureBitsetRows: at n = 100, not a multiple of 64, so rows
// straddle word boundaries, the cached closure holds ceil(n²/64) words
// and /reachable returns, for every source, exactly ClosureRef's row.
func TestClosureBitsetRows(t *testing.T) {
	srv := New(Options{Workers: 1})
	t.Cleanup(srv.Close)
	const n = 100
	g := graph.RandomGNP(n, 0.015, 4) // several components: real unreachable pairs
	e, err := srv.store.add("g", g)
	if err != nil {
		t.Fatal(err)
	}
	unreachable := false
	for v := 0; v < n; v++ {
		var resp api.ReachableResponse
		decodeOK(t, serveQuery(context.Background(), srv, "/graphs/g/reachable", api.ReachableRequest{Source: int64(v)}), &resp)
		want := algo.ClosureRef(g, core.NodeID(v))
		if !reflect.DeepEqual(resp.Reachable, want) {
			t.Fatalf("source %d: /reachable row differs from ClosureRef", v)
		}
		unreachable = unreachable || slices.Contains(want, false)
	}
	if !unreachable {
		t.Fatal("every vertex reaches every other; the fixture needs unreachable pairs")
	}
	if c := e.closure.Load(); c == nil || len(c.bits) != (n*n+63)/64 {
		t.Errorf("cached closure is not an n²-bit set: %+v", c)
	}
}

// TestReachableMatchesOracleAndCaches checks the reachability endpoint
// against BellmanFordRef-derived reachability, and that the second
// query — any source — answers from the cached closure with zero
// rounds, with the metrics surfaces recording both queries.
func TestReachableMatchesOracleAndCaches(t *testing.T) {
	srv, c := newTestDaemon(t, Options{})
	ctx := context.Background()
	// Two disjoint paths: real unreachable pairs.
	g, err := graph.LoadEdgeList(strings.NewReader("p 9\n0 1\n1 2\n2 3\n4 5\n5 6\n6 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	id := upload(t, c, "reach", g)

	first, err := c.Reachable(ctx, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first reachable query reported a cache hit")
	}
	if first.Rounds == 0 {
		t.Error("first reachable query reports zero rounds")
	}
	dist := algo.BellmanFordRef(g.WithUnitWeights(), 2)
	for v, r := range first.Reachable {
		if want := dist[v] >= 0; r != want {
			t.Errorf("reachable[%d] = %v, oracle %v", v, r, want)
		}
	}

	second, err := c.Reachable(ctx, id, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.Rounds != 0 {
		t.Errorf("second query: cacheHit=%v rounds=%d, want cached zero-round answer",
			second.CacheHit, second.Rounds)
	}
	dist6 := algo.BellmanFordRef(g.WithUnitWeights(), 6)
	for v, r := range second.Reachable {
		if want := dist6[v] >= 0; r != want {
			t.Errorf("cached reachable[%d] = %v, oracle %v", v, r, want)
		}
	}

	if snap := srv.Metrics().Snapshot(); snap.ReachableQueries != 2 {
		t.Errorf("reachable query counter = %d, want 2", snap.ReachableQueries)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "ccserve_queries_total{kind=\"reachable\"} 2\n") {
		t.Error("/metrics does not report the reachable queries")
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries["reachable"] != 2 {
		t.Errorf("stats reachable total = %d, want 2", st.Queries["reachable"])
	}

	var apiErr *client.APIError
	if _, err := c.Reachable(ctx, id, 99); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("out-of-range source: %v, want 400", err)
	}
	if _, err := c.Reachable(ctx, "nope", 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown graph: %v, want 404", err)
	}
}

// TestMetricsAndStatsSurfaces scrapes /metrics and /stats after a mix
// of queries and checks the accounting lines are present and sane.
func TestMetricsAndStatsSurfaces(t *testing.T) {
	_, c := newTestDaemon(t, Options{})
	ctx := context.Background()
	g := graph.Grid(4, 4)
	id := upload(t, c, "obs", g)

	if _, err := c.SSSP(ctx, id, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.KSource(ctx, id, []int64{0, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApproxSSSP(ctx, id, 0, 0); err != nil {
		t.Fatal(err)
	}

	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP ccserve_engine_rounds_total",
		"# TYPE ccserve_engine_rounds_total counter",
		"ccserve_queries_total{kind=\"sssp\"} 1",
		"ccserve_queries_total{kind=\"ksource\"} 1",
		"ccserve_queries_total{kind=\"approx-sssp\"} 1",
		"ccserve_sessions_active 1",
		"ccserve_graphs_loaded 1",
		"ccserve_engine_words_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries["sssp"] != 1 || st.Queries["ksource"] != 1 || st.Queries["approx-sssp"] != 1 {
		t.Errorf("query totals = %v", st.Queries)
	}
	if st.KernelRuns < 3 {
		t.Errorf("kernel runs = %d, want >= 3", st.KernelRuns)
	}
	if len(st.Graphs) != 1 {
		t.Fatalf("stats has %d graphs, want 1", len(st.Graphs))
	}
	gs := st.Graphs[0]
	if gs.ID != id || gs.Stats.Kernels < 3 || gs.Stats.Engine.Rounds == 0 {
		t.Errorf("per-graph stats %+v lacks session accounting", gs)
	}
}

// TestLoadGraphRejectsMalformed checks the loader's diagnostics travel
// through the HTTP surface as 400s.
func TestLoadGraphRejectsMalformed(t *testing.T) {
	_, c := newTestDaemon(t, Options{})
	var apiErr *client.APIError
	_, err := c.LoadGraph(context.Background(), "bad", strings.NewReader("0 0 5\n"))
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("self-loop upload: %v, want 400", err)
	}
	if !strings.Contains(apiErr.Message, "self-loop") {
		t.Errorf("diagnostic %q does not name the self-loop", apiErr.Message)
	}
}

// TestDeleteWhileQuerying checks a DELETE sends an approx-sssp batch
// waiting at the graph's lease away with 410 Gone at once, waits out
// the leaseholder, and that later queries fail cleanly.
func TestDeleteWhileQuerying(t *testing.T) {
	srv, c := newTestDaemon(t, Options{})
	ctx := context.Background()
	g := graph.RandomGNPWeighted(24, 0.3, 9, 11)
	id := upload(t, c, "doomed", g)
	release := holdLease(t, srv, srv.store.get(id))

	done := make(chan error, 1)
	go func() {
		_, err := c.ApproxSSSP(ctx, id, 0, 0.25)
		done <- err
	}()
	within(t, "batch waiting on the lease", func() bool { return batchesFormed(srv.store.get(id), 0.25) == 1 })
	deleted := make(chan error, 1)
	go func() { deleted <- c.DeleteGraph(ctx, id) }()
	var apiErr *client.APIError
	if err := <-done; !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("in-flight query after delete: %v, want 410", err)
	}
	release()
	if err := <-deleted; err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.SSSP(ctx, id, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("query after delete: %v, want 404", err)
	}
	if runs := srv.Metrics().Snapshot().KernelRuns; runs != 0 {
		t.Errorf("kernel runs = %d, want 0: the batch never held the lease", runs)
	}
}

// TestCancelledQueryBehindLeaseRunsNothing: an /sssp query queued behind
// a held session lease whose client gives up leaves without running a
// kernel, is counted as cancelled rather than failed, and the session
// serves the next query.
func TestCancelledQueryBehindLeaseRunsNothing(t *testing.T) {
	srv, c := newTestDaemon(t, Options{})
	g := graph.RandomGNPWeighted(16, 0.3, 9, 1)
	id := upload(t, c, "held", g)
	release := holdLease(t, srv, srv.store.get(id))
	runs := srv.Metrics().Snapshot().KernelRuns
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.SSSP(ctx, id, 0)
		done <- err
	}()
	within(t, "query waiting on the lease", func() bool { return srv.Metrics().Snapshot().Inflight == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled query succeeded")
	}
	within(t, "handler gone", func() bool { return srv.Metrics().Snapshot().Inflight == 0 })
	release()
	snap := srv.Metrics().Snapshot()
	if snap.KernelRuns != runs {
		t.Errorf("kernel runs %d -> %d: a cancelled waiter ran a kernel", runs, snap.KernelRuns)
	}
	if snap.QueriesCancelled != 1 || snap.QueryErrors != 0 {
		t.Errorf("(cancelled, errors) = (%d, %d), want (1, 0): a client that left is not an error",
			snap.QueriesCancelled, snap.QueryErrors)
	}
	resp, err := c.SSSP(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := algo.BellmanFordRef(g, 0); !reflect.DeepEqual(resp.Dist, want) {
		t.Errorf("next query after the cancellation: %v, want %v", resp.Dist, want)
	}
}
