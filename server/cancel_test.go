package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/pkg/api"
)

// serveQuery runs one POST through srv's handler in-process under ctx.
// The handler's request context is ctx itself, so a test's cancel
// reaches the server at once, with no connection teardown in between.
func serveQuery(ctx context.Context, srv *Server, path string, body any) *httptest.ResponseRecorder {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// decodeOK decodes a 200 response into v.
func decodeOK(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatal(err)
	}
}

// TestCancelMidRunFreesTheLease: per endpoint, a query cancelled while
// its kernel runs (seen through the metrics round counter) stops that
// kernel: the run fails with the context's error, the query counts as
// cancelled with no error body, a concurrent acquire gets the lease
// with at most one more round billed, goroutines return to baseline,
// and the next query is bit-identical to the oracle. The graphs are
// long paths, so every kernel runs for many rounds.
func TestCancelMidRunFreesTheLease(t *testing.T) {
	sssp := func(t *testing.T, g *graph.CSR, rec *httptest.ResponseRecorder) int {
		var resp api.SSSPResponse
		decodeOK(t, rec, &resp)
		if !reflect.DeepEqual(resp.Dist, algo.BellmanFordRef(g.WithUnitWeights(), 0)) {
			t.Error("answer differs from BellmanFordRef")
		}
		return resp.Rounds
	}
	for _, tc := range []struct {
		name string
		g    *graph.CSR
		path string
		body any
		// warm runs the query itself as the warm-up, not an /sssp one:
		// it fills the hopset cache, so the measured runs are hits.
		warm bool
		// batched queries leave their batch from the handler's own
		// goroutine, so the batch sees the cancellation once the
		// handler has returned, not when cancel does.
		batched bool
		check   func(*testing.T, *graph.CSR, *httptest.ResponseRecorder) int
	}{
		{name: "sssp", g: graph.Path(2048), path: "/graphs/g/sssp",
			body: api.SSSPRequest{Source: 0}, check: sssp},
		{name: "ksource", g: graph.Path(128), path: "/graphs/g/ksource",
			body: api.KSourceRequest{Sources: []int64{0}, H: 127},
			check: func(t *testing.T, g *graph.CSR, rec *httptest.ResponseRecorder) int {
				var resp api.KSourceResponse
				decodeOK(t, rec, &resp)
				if !reflect.DeepEqual(resp.Dist[0], algo.BellmanFordRef(g.WithUnitWeights(), 0)) {
					t.Error("answer differs from BellmanFordRef")
				}
				return resp.Rounds
			}},
		{name: "reachable-miss", g: graph.Path(256), path: "/graphs/g/reachable",
			body: api.ReachableRequest{Source: 0},
			check: func(t *testing.T, g *graph.CSR, rec *httptest.ResponseRecorder) int {
				var resp api.ReachableResponse
				decodeOK(t, rec, &resp)
				if resp.CacheHit || !reflect.DeepEqual(resp.Reachable, algo.ClosureRef(g, 0)) {
					t.Errorf("cache hit %v, or answer differs from ClosureRef", resp.CacheHit)
				}
				return resp.Rounds
			}},
		// On a unit-weight path the (1+ε) pipeline is exact.
		{name: "approx-hit", g: graph.Path(1024), path: "/graphs/g/approx-sssp",
			body: api.ApproxSSSPRequest{Source: 0, Eps: 0.25}, warm: true, batched: true,
			check: func(t *testing.T, g *graph.CSR, rec *httptest.ResponseRecorder) int {
				var resp api.ApproxSSSPResponse
				decodeOK(t, rec, &resp)
				if !reflect.DeepEqual(resp.Dist, algo.BellmanFordRef(g.WithUnitWeights(), 0)) {
					t.Error("answer differs from BellmanFordRef")
				}
				return resp.Rounds
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Options{Workers: 1})
			t.Cleanup(srv.Close)
			e, err := srv.store.add("g", tc.g)
			if err != nil {
				t.Fatal(err)
			}
			bg := context.Background()
			// The warm-up starts the session's engine workers, which
			// outlive every query.
			if tc.warm {
				tc.check(t, tc.g, serveQuery(bg, srv, tc.path, tc.body))
			} else {
				sssp(t, tc.g, serveQuery(bg, srv, "/graphs/g/sssp", api.SSSPRequest{Source: 0}))
			}
			base := runtime.NumGoroutine()
			before := srv.Metrics().Snapshot()
			walls := histCount(&srv.metrics.kernelWall)

			ctx, cancel := context.WithCancel(bg)
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- serveQuery(ctx, srv, tc.path, tc.body) }()
			within(t, "kernel running", func() bool { return srv.Metrics().Snapshot().Rounds > before.Rounds })
			leased := make(chan uint64, 1)
			go func() {
				l, err := srv.pool.acquire(bg, e.info.Version, e.g)
				if err != nil {
					t.Error(err)
					close(leased)
					return
				}
				leased <- srv.Metrics().Snapshot().Rounds
				l.release()
			}()
			cancel()
			atCancel := srv.Metrics().Snapshot().Rounds
			rec := <-done
			if tc.batched {
				atCancel = srv.Metrics().Snapshot().Rounds
			}
			atLease, ok := <-leased
			if !ok {
				t.FailNow()
			}
			if atLease > atCancel+1 {
				t.Errorf("the lease freed %d rounds after the cancellation, want at most 1", atLease-atCancel)
			}
			if rec.Body.Len() != 0 {
				t.Errorf("cancelled query wrote a %d-byte body, want none", rec.Body.Len())
			}
			snap := srv.Metrics().Snapshot()
			if snap.QueriesCancelled != before.QueriesCancelled+1 || snap.QueryErrors != before.QueryErrors {
				t.Errorf("(cancelled, errors) went (%d, %d) -> (%d, %d), want one more cancelled and no error",
					before.QueriesCancelled, before.QueryErrors, snap.QueriesCancelled, snap.QueryErrors)
			}
			if snap.KernelRuns != before.KernelRuns+1 || histCount(&srv.metrics.kernelWall) != walls {
				t.Errorf("kernel runs %d -> %d, kernel walls %d -> %d: want one run, failed",
					before.KernelRuns, snap.KernelRuns, walls, histCount(&srv.metrics.kernelWall))
			}
			billed := int(atLease - before.Rounds)

			full := tc.check(t, tc.g, serveQuery(bg, srv, tc.path, tc.body))
			if billed >= full {
				t.Errorf("the cancelled run billed %d rounds, a full run %d: it was not stopped mid-run", billed, full)
			}
			if misses := srv.Metrics().Snapshot().CacheMisses; tc.warm && misses != 1 {
				t.Errorf("%d hopset cache misses, want only the warm-up's", misses)
			}
			within(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}

// TestBatchLeftAtTheLeaseRunsNothing: an approx-sssp batch whose only
// waiter leaves while the batch waits for the graph's lease never runs
// a kernel, and the graph serves the next query.
func TestBatchLeftAtTheLeaseRunsNothing(t *testing.T) {
	srv := New(Options{Workers: 1})
	t.Cleanup(srv.Close)
	g := graph.Path(64)
	e, err := srv.store.add("g", g)
	if err != nil {
		t.Fatal(err)
	}
	release := holdLease(t, srv, e)
	base := runtime.NumGoroutine()
	body := api.ApproxSSSPRequest{Source: 3, Eps: 0.25}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- serveQuery(ctx, srv, "/graphs/g/approx-sssp", body) }()
	within(t, "batch waiting on the lease", func() bool { return batchesFormed(e, body.Eps) == 1 })
	cancel()
	if rec := <-done; rec.Body.Len() != 0 {
		t.Errorf("cancelled query wrote a %d-byte body, want none", rec.Body.Len())
	}
	within(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })
	release()
	if snap := srv.Metrics().Snapshot(); snap.KernelRuns != 0 || snap.QueriesCancelled != 1 {
		t.Errorf("(kernel runs, cancelled) = (%d, %d), want (0, 1)", snap.KernelRuns, snap.QueriesCancelled)
	}

	var resp api.ApproxSSSPResponse
	decodeOK(t, serveQuery(context.Background(), srv, "/graphs/g/approx-sssp", body), &resp)
	if resp.CacheHit || !reflect.DeepEqual(resp.Dist, algo.BellmanFordRef(g.WithUnitWeights(), 3)) {
		t.Errorf("next query: cache hit %v, or answer differs from BellmanFordRef", resp.CacheHit)
	}
}

// TestMissBatchLeftMidRunStillFillsTheCache: a cache-miss batch runs
// under the server's lifetime, not its waiters', so when its only
// waiter leaves mid-construction the hopset is still built and cached,
// and the next query is a bit-identical cache hit.
func TestMissBatchLeftMidRunStillFillsTheCache(t *testing.T) {
	srv := New(Options{Workers: 1})
	t.Cleanup(srv.Close)
	g := graph.Path(512)
	e, err := srv.store.add("g", g)
	if err != nil {
		t.Fatal(err)
	}
	body := api.ApproxSSSPRequest{Source: 0, Eps: 0.25}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- serveQuery(ctx, srv, "/graphs/g/approx-sssp", body) }()
	within(t, "hopset construction running", func() bool { return srv.Metrics().Snapshot().Rounds > 0 })
	cancel()
	if rec := <-done; rec.Body.Len() != 0 {
		t.Errorf("cancelled query wrote a %d-byte body, want none", rec.Body.Len())
	}

	holdLease(t, srv, e)() // waits for the construction to end
	if snap := srv.Metrics().Snapshot(); snap.CacheMisses != 1 || snap.QueriesCancelled != 1 || snap.QueryErrors != 0 {
		t.Errorf("(misses, cancelled, errors) = (%d, %d, %d), want (1, 1, 0)",
			snap.CacheMisses, snap.QueriesCancelled, snap.QueryErrors)
	}
	var resp api.ApproxSSSPResponse
	decodeOK(t, serveQuery(context.Background(), srv, "/graphs/g/approx-sssp", body), &resp)
	if !resp.CacheHit || !reflect.DeepEqual(resp.Dist, algo.BellmanFordRef(g.WithUnitWeights(), 0)) {
		t.Errorf("next query: cache hit %v, or answer differs from BellmanFordRef", resp.CacheHit)
	}
}
