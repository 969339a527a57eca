// Package server is ccserve's HTTP serving layer over the clique
// session API — the subsystem that turns the Dory-Parter batch
// pipeline into a long-running query daemon. It layers, podman-style,
// a thin handler surface over three serving components:
//
//   - a session pool keyed by graph version (pool.go): one warm
//     clique.Session per loaded graph, serialized by a per-version
//     lease because Sessions are not concurrency-safe, with engine
//     workers and router slabs amortized across queries;
//   - an admission coalescer per (graph, core.SigBitsFor(ε))
//     (coalesce.go): concurrent single-source approximate queries ride
//     one batched ApproxKSourceKernel run — k sources for the price of
//     one pipeline;
//   - a hopset-augmented adjacency cache under the same key (store.go):
//     after the first approximate query constructs the hopset, every
//     later query whose ε rounds weights to the same significant bits
//     runs a RelaxKernel over the cached augmented matrix and pays zero
//     stage-1 rounds, bit-identical to the full pipeline.
//
// Observability streams through clique.WithRoundHook into a
// Prometheus-text /metrics endpoint (metrics.go), and /stats exposes
// per-graph session accounting in the repository's stable
// clique.Stats encoding. The wire types live in pkg/api; pkg/client
// is the Go client.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/pkg/api"
)

// DefaultEps is the approximation slack used when an approx-sssp
// request leaves Eps zero.
const DefaultEps = 0.25

// Options configures a Server. The zero value serves with 16-query
// batches, GOMAXPROCS session workers, and a 64 MiB upload cap.
// Approximate queries are batched by occupancy, with no admission
// window: a query that finds its (graph, ε) idle runs at once, and the
// queries that arrive while a batch runs ride the next one.
type Options struct {
	// MaxBatch bounds how many coalesced single-source queries one
	// batched kernel run carries. <= 0 selects 16.
	MaxBatch int
	// CoalesceWait is ignored.
	//
	// Deprecated: batches form from the queries queued when the
	// coalescer can run, with no admission window.
	CoalesceWait time.Duration
	// Workers is the per-session engine worker count; 0 selects the
	// GOMAXPROCS default.
	Workers int
	// MaxUploadBytes caps POST /graphs bodies. <= 0 selects 64 MiB.
	MaxUploadBytes int64
}

// Server is the ccserve daemon core: an http.Handler serving the
// graph-management and query endpoints over the session pool. Create
// with New, serve with net/http, and Close after the HTTP layer has
// drained to release the pooled engine workers.
type Server struct {
	opts    Options
	metrics *Metrics
	store   *store
	pool    *sessionPool
	mux     *http.ServeMux

	// life is the server's lifetime context, cancelled by Close. Work
	// that belongs to a graph rather than to one caller — a hopset
	// construction — runs under it.
	life context.Context
	stop context.CancelFunc
}

// New builds a Server with its own metrics, store, and session pool.
func New(opts Options) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 16
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 64 << 20
	}
	s := &Server{opts: opts, metrics: &Metrics{}}
	s.life, s.stop = context.WithCancel(context.Background())
	s.pool = newSessionPool(s.metrics, opts.Workers)
	s.store = newStore(s.pool)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /graphs", s.handleLoadGraph)
	s.mux.HandleFunc("GET /graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /graphs/{id}", s.handleGetGraph)
	s.mux.HandleFunc("DELETE /graphs/{id}", s.handleDeleteGraph)
	s.mux.HandleFunc("POST /graphs/{id}/sssp", s.handleSSSP)
	s.mux.HandleFunc("POST /graphs/{id}/ksource", s.handleKSource)
	s.mux.HandleFunc("POST /graphs/{id}/approx-sssp", s.handleApproxSSSP)
	s.mux.HandleFunc("POST /graphs/{id}/reachable", s.handleReachable)
	// Live profiling. Registered explicitly (the net/http/pprof side
	// effect targets only http.DefaultServeMux): CPU/heap/goroutine
	// profiles and execution traces of the serving daemon under
	// /debug/pprof/, the standard `go tool pprof` target.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP dispatches to the registered handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the server's metrics registry (shared with every
// pooled session's RoundHook).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close cancels the server's lifetime context, which stops a hopset
// construction within a round, and releases every pooled session. Call
// it after the HTTP layer has drained in-flight requests
// (http.Server.Shutdown) or given up on them: a query that still holds
// a lease is waited out, but new queries fail.
func (s *Server) Close() {
	s.stop()
	s.pool.closeAll()
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeErr writes an api.Error body.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	resp := api.StatsResponse{
		Graphs: []api.GraphStats{},
		Queries: map[string]uint64{
			"sssp":        snap.SSSPQueries,
			"ksource":     snap.KSourceQueries,
			"approx-sssp": snap.ApproxQueries,
			"reachable":   snap.ReachableQueries,
		},
		KernelRuns: snap.KernelRuns,
	}
	for _, e := range s.store.list() {
		gs := api.GraphStats{GraphInfo: e.info}
		if st, ok := s.pool.stats(e.info.Version); ok {
			gs.Stats = st
		}
		resp.Graphs = append(resp.Graphs, gs)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	g, err := graph.LoadEdgeList(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if g.N == 0 {
		writeErr(w, http.StatusBadRequest, "server: refusing a zero-vertex graph")
		return
	}
	e, err := s.store.add(r.URL.Query().Get("name"), g)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errDuplicateID) {
			status = http.StatusConflict
		}
		writeErr(w, status, "%v", err)
		return
	}
	s.metrics.graphsLoaded.Add(1)
	writeJSON(w, http.StatusCreated, e.info)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	resp := api.GraphList{Graphs: []api.GraphInfo{}}
	for _, e := range s.store.list() {
		resp.Graphs = append(resp.Graphs, e.info)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	e := s.store.get(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "server: unknown graph %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, e.info)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	e := s.store.remove(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "server: unknown graph %q", r.PathValue("id"))
		return
	}
	// Waits out the current leaseholder, then closes the warm session.
	s.pool.drop(e.info.Version)
	s.metrics.graphsLoaded.Add(-1)
	w.WriteHeader(http.StatusNoContent)
}

// decodeBody decodes a JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "server: decoding request: %v", err)
		return false
	}
	return true
}

// checkSources validates 0-based sources against the graph size.
func checkSources(e *graphEntry, sources []int64) error {
	if len(sources) == 0 {
		return errors.New("server: no sources given")
	}
	for _, src := range sources {
		if src < 0 || int(src) >= e.info.N {
			return fmt.Errorf("server: source %d out of range [0,%d)", src, e.info.N)
		}
	}
	return nil
}

func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	e := s.store.get(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "server: unknown graph %q", r.PathValue("id"))
		return
	}
	var req api.SSSPRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkSources(e, []int64{req.Source}); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.ssspQueries.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	defer func() { s.metrics.observeQuery(kindSSSP, time.Since(start)) }()

	k := algo.NewBellmanFordKernel(core.NodeID(req.Source))
	tel, err := s.runExact(r.Context(), e, k)
	if err != nil {
		s.queryFailed(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.SSSPResponse{
		Source: req.Source, Dist: k.Dist(),
		Rounds: tel.rounds, WallNanos: int64(tel.wall),
	})
}

func (s *Server) handleKSource(w http.ResponseWriter, r *http.Request) {
	e := s.store.get(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "server: unknown graph %q", r.PathValue("id"))
		return
	}
	var req api.KSourceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkSources(e, req.Sources); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	h := req.H
	if h == 0 {
		h = hopset.DefaultBeta(e.info.N)
	}
	if h < 1 {
		writeErr(w, http.StatusBadRequest, "server: hop horizon %d must be >= 1", h)
		return
	}
	s.metrics.ksourceQueries.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	defer func() { s.metrics.observeQuery(kindKSource, time.Since(start)) }()

	sources := make([]core.NodeID, len(req.Sources))
	for i, src := range req.Sources {
		sources[i] = core.NodeID(src)
	}
	k := algo.NewKSourceKernel(sources, h)
	tel, err := s.runExact(r.Context(), e, k)
	if err != nil {
		s.queryFailed(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.KSourceResponse{
		Sources: req.Sources, H: h, Dist: k.Dist(),
		Rounds: tel.rounds, WallNanos: int64(tel.wall),
	})
}

// runTelemetry is what one kernel run cost: the session stats deltas
// the query handlers surface in their responses and the kernel-wall
// histogram feeds on.
type runTelemetry struct {
	passes int
	rounds int
	wall   time.Duration
}

// runExact runs one exact kernel under the graph's session lease and
// reports its cost. A query whose context ends while it waits for the
// lease gives up without running anything; one whose context ends
// while it runs stops within a round.
func (s *Server) runExact(ctx context.Context, e *graphEntry, k clique.Kernel) (runTelemetry, error) {
	l, err := s.pool.acquire(ctx, e.info.Version, e.g)
	if err != nil {
		return runTelemetry{}, err
	}
	defer l.release()
	return s.runOn(ctx, l.session(), k)
}

// runOn is the daemon's one kernel-run path: it counts the run, runs k
// on a leased session under ctx, takes the session stats delta, and
// feeds the kernel-wall histogram when the run succeeds.
func (s *Server) runOn(ctx context.Context, sess *clique.Session, k clique.Kernel) (runTelemetry, error) {
	s.metrics.kernelRuns.Add(1)
	before := sess.Stats()
	// The engine checks ctx at every round barrier, so a cancelled run
	// frees the lease within a round; a cancelled run's partial passes
	// stay billed to the session.
	err := sess.Run(ctx, k)
	after := sess.Stats()
	tel := runTelemetry{
		passes: after.Runs - before.Runs,
		rounds: after.Engine.Rounds - before.Engine.Rounds,
		wall:   after.Engine.Wall - before.Engine.Wall,
	}
	if err == nil {
		s.metrics.kernelWall.observe(tel.wall)
	}
	return tel, err
}

// queryFailed maps a query execution error onto a response. A query
// that failed because its own request context ended is not an error:
// it is counted as cancelled, and nothing is written to the client
// that left.
func (s *Server) queryFailed(w http.ResponseWriter, r *http.Request, err error) {
	if cerr := r.Context().Err(); cerr != nil && errors.Is(err, cerr) {
		s.metrics.queriesCancelled.Add(1)
		return
	}
	s.metrics.queryErrors.Add(1)
	status := http.StatusInternalServerError
	if errors.Is(err, ErrGraphGone) {
		status = http.StatusGone
	}
	writeErr(w, status, "%v", err)
}

func (s *Server) handleApproxSSSP(w http.ResponseWriter, r *http.Request) {
	e := s.store.get(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "server: unknown graph %q", r.PathValue("id"))
		return
	}
	var req api.ApproxSSSPRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkSources(e, []int64{req.Source}); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	eps := req.Eps
	if eps == 0 {
		eps = DefaultEps
	}
	if eps < 0 || eps != eps {
		writeErr(w, http.StatusBadRequest, "server: eps %v outside [0, inf)", eps)
		return
	}
	s.metrics.approxQueries.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	defer func() { s.metrics.observeQuery(kindApprox, time.Since(start)) }()

	// The significant-bit count is all the construction reads of ε
	// (hopset's weight rounding), so it is the cache and coalescer key:
	// every ε that rounds alike shares one hopset and one admission
	// queue. The response still echoes the caller's own ε.
	key := core.SigBitsFor(eps)
	c := e.coalescerFor(key, func() *coalescer {
		return newCoalescer(s.life, s.opts.MaxBatch, &s.metrics.coalesceWait,
			func(ctx context.Context, sources []core.NodeID) (*batchResult, error) {
				return s.runApproxBatch(ctx, e, eps, key, sources)
			})
	})
	out := c.do(r.Context(), core.NodeID(req.Source))
	if out.err != nil {
		s.queryFailed(w, r, out.err)
		return
	}
	writeJSON(w, http.StatusOK, api.ApproxSSSPResponse{
		Source: req.Source, Eps: eps, Beta: out.beta, Dist: out.dist,
		BatchSize: out.batch, CacheHit: out.cacheHit,
		Passes: out.passes, Rounds: out.rounds, WallNanos: int64(out.wall),
	})
}

// handleReachable answers reachability queries from the graph's cached
// transitive closure, constructing it with one TransitiveClosureKernel
// run on first use. The closure is ε-free and source-independent, so a
// single cached bitset serves every later query on the graph with zero
// engine rounds; each response expands the one row it returns.
func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) {
	e := s.store.get(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "server: unknown graph %q", r.PathValue("id"))
		return
	}
	var req api.ReachableRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkSources(e, []int64{req.Source}); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.reachableQueries.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	defer func() { s.metrics.observeQuery(kindReachable, time.Since(start)) }()

	c, hit, tel, err := s.closureOf(r.Context(), e)
	if err != nil {
		s.queryFailed(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ReachableResponse{
		Source: req.Source, Reachable: c.row(int(req.Source)),
		Rounds: tel.rounds, WallNanos: int64(tel.wall), CacheHit: hit,
	})
}

// closureOf returns e's transitive closure, whether it was already
// cached, and the cost of building it when it was not. A cached
// closure is read without the session lease; a miss takes the lease,
// checks again, and builds and stores the closure once.
func (s *Server) closureOf(ctx context.Context, e *graphEntry) (*closure, bool, runTelemetry, error) {
	if c := e.closure.Load(); c != nil {
		return c, true, runTelemetry{}, nil
	}
	l, err := s.pool.acquire(ctx, e.info.Version, e.g)
	if err != nil {
		return nil, false, runTelemetry{}, err
	}
	defer l.release()
	if c := e.closure.Load(); c != nil {
		return c, true, runTelemetry{}, nil
	}
	k := algo.NewTransitiveClosureKernel()
	tel, err := s.runOn(ctx, l.session(), k)
	if err != nil {
		return nil, false, tel, err
	}
	c := newClosure(k.Reach())
	e.closure.Store(c)
	return c, false, tel, nil
}

// closure is a graph's transitive closure, one bit per (source,
// target) pair packed row-major: n²/8 bytes, where the [][]bool the
// kernel returns takes n² bytes plus a slice header per row.
type closure struct {
	n    int
	bits []uint64
}

// newClosure packs reach, one row per source.
func newClosure(reach [][]bool) *closure {
	n := len(reach)
	c := &closure{n: n, bits: make([]uint64, (n*n+63)/64)}
	for v, row := range reach {
		for j, ok := range row {
			if ok {
				i := v*n + j
				c.bits[i/64] |= 1 << (i % 64)
			}
		}
	}
	return c
}

// row expands source v's row into one bool per vertex.
func (c *closure) row(v int) []bool {
	out := make([]bool, c.n)
	for j := range out {
		i := v*c.n + j
		out[j] = c.bits[i/64]>>(i%64)&1 != 0
	}
	return out
}

// runApproxBatch executes one coalesced batch: under the graph's
// session lease it either relaxes over the cached hopset-augmented
// adjacency (cache hit — zero stage-1 rounds) or runs the full
// two-stage ApproxKSourceKernel and caches the augmented matrix for
// the next batch. Results are bit-identical either way, and identical
// to per-source standalone Session runs, because the hopset is a
// deterministic function of (graph, Params) and stage 2's dense
// (min,+) products are column-independent.
//
// ctx is the batch's context, which ends once every waiter in the
// batch has left: it bounds the lease wait and a cache-hit run. A
// cache miss runs under the server's lifetime context instead, because
// the hopset it builds belongs to the graph, not to the waiters.
func (s *Server) runApproxBatch(ctx context.Context, e *graphEntry, eps float64, key int, sources []core.NodeID) (*batchResult, error) {
	l, err := s.pool.acquire(ctx, e.info.Version, e.g)
	if err != nil {
		return nil, err
	}
	defer l.release()

	res := &batchResult{}
	var tel runTelemetry
	if hc := e.hopsets[key]; hc != nil {
		k := algo.NewRelaxKernel(hc.aug, sources, hc.products, hc.plan)
		if tel, err = s.runOn(ctx, l.session(), k); err != nil {
			return nil, err
		}
		res.rows, res.beta, res.cacheHit = k.Dist(), hc.beta, true
	} else {
		k := algo.NewApproxKSourceKernel(sources, hopset.Params{Eps: eps})
		if tel, err = s.runOn(s.life, l.session(), k); err != nil {
			return nil, err
		}
		hs := k.Hopset()
		e.hopsets[key] = &hopsetCache{
			aug: k.Augmented(), plan: k.Plan(), beta: hs.Beta,
			products: algo.RelaxProducts(hs.Beta, e.info.N),
		}
		res.rows, res.beta = k.Dist(), hs.Beta
	}
	res.passes, res.rounds, res.wall = tel.passes, tel.rounds, tel.wall
	s.metrics.observeBatch(len(sources), res.cacheHit)
	return res, nil
}
