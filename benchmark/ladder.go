package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
	"github.com/paper-repo-growth/doryp20/pkg/api"
	"github.com/paper-repo-growth/doryp20/server"
)

// metric is one reported number. Samples is how many timed operations
// the value summarizes (0 for counts and ratios of other metrics).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// ladder measures every layer from outside, rung by rung, on operands
// derived from the same seed as the workloads: router flood, Outbox
// exchange, one matmul pass, one kernel, Session.Run, the HTTP handler,
// and a query through pkg/client. Each rung records its ratio to the
// rung below. README.md ("Per-layer metrics") says which end-to-end
// metric each number is expected to move.
type ladder struct {
	cfg       *config
	tr        *tracer
	m         map[string]metric
	attempted int
	failed    int
	oracle    time.Duration
}

func (l *ladder) put(name string, v float64, unit string, samples int) {
	l.m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// get returns an already-measured value, for the rung-over-rung ratios.
func (l *ladder) get(name string) float64 { return l.m[name].Value }

// verify counts one checked output; a mismatch fails the run.
func (l *ladder) verify(what string, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "benchmark: ladder %s: %v\n", what, err)
	}
}

// span times f as one root span of the given layer.
func (l *ladder) span(name, layer string, f func() error) (time.Duration, error) {
	id := l.tr.begin(name, layer, -1, -1)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	l.tr.finish(id, nil)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return d, err
}

// timeOracle runs a sequential reference outside every rung and books
// its cost to bench.oracle_s.
func (l *ladder) timeOracle(f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.oracle += d
	return d
}

func runLadder(ctx context.Context, cfg *config, tr *tracer) (*ladder, error) {
	l := &ladder{cfg: cfg, tr: tr, m: map[string]metric{}}
	t0 := time.Now()
	for _, rung := range []func(context.Context) error{
		l.engineRungs, l.matmulRungs, l.kernelRungs, l.cliqueRungs, l.graphRungs, l.servingRungs,
	} {
		if err := rung(ctx); err != nil {
			return nil, err
		}
	}
	l.put("clique.peak_rss_mb", selfPeakRSSMB(), "MB", 0)
	l.put("bench.oracle_s", secs(l.oracle), "s", 0)
	l.put("bench.ladder_s", secs(time.Since(t0)), "s", 0)
	return l, nil
}

// okLatencies returns the latencies of the successful operations and
// counts every operation as one verified output.
func (l *ladder) okLatencies(what string, ops []opResult) []time.Duration {
	var out []time.Duration
	for _, r := range ops {
		l.verify(what, r.err)
		if r.err == nil {
			out = append(out, r.latency)
		}
	}
	return out
}

// fastDur is fast over durations: the undisturbed time of a rung that
// was repeated.
func fastDur(ds []time.Duration) time.Duration {
	return time.Duration(fast(durationsMs(ds)) * float64(time.Millisecond))
}

// ---- engine: flood, Outbox exchange, per-round fixed cost ----

// exchangeNode streams the same row of words to every other node
// through an Outbox, the way a matmul node streams a matrix row.
type exchangeNode struct {
	row       []uint64
	ob        *engine.Outbox
	recv, sum uint64
}

func (nd *exchangeNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	nd.recv += uint64(len(inbox))
	for _, m := range inbox {
		nd.sum += m.Payload
	}
	if r == 0 {
		for dst := 0; dst < ctx.NumNodes(); dst++ {
			if core.NodeID(dst) != ctx.ID() {
				nd.ob.PushShared(core.NodeID(dst), nd.row)
			}
		}
	}
	return nd.ob.Flush(ctx)
}

func (l *ladder) engineRungs(ctx context.Context) error {
	cfg := l.cfg
	salt := floodSalt(cfg)

	// Router flood at one worker: the floor every layer above is a
	// multiple of.
	tap := &roundTap{}
	var f1 *floodInst
	_, err := l.span("flood set-up", "engine", func() (err error) {
		f1, err = newFlood(cfg.floodN, cfg.floodFanout, cfg.floodRounds, salt, pinnedWorkers, tap)
		return err
	})
	if err != nil {
		return err
	}
	tap.phaseSums() // drop the warm-up
	ops := runOps(ctx, f1, cfg.reps, l.tr)
	f1.close() //nolint:errcheck // never fails
	lat := l.okLatencies("flood", ops)
	if len(lat) == 0 {
		return errors.New("flood: no run succeeded")
	}
	_, compute, scatter := tap.phaseSums()
	p50 := fastDur(lat)
	l.put("engine.flood_ns_per_word", ratio(float64(p50), ops[0].words), "ns/word", len(lat))
	l.put("engine.rounds_per_s", ratio(ops[0].rounds, secs(p50)), "1/s", len(lat))
	var total time.Duration
	for _, r := range ops {
		total += r.latency
	}
	l.put("engine.compute_share_flood", ratio(float64(compute), float64(total)), "ratio", 0)
	l.put("engine.scatter_share_flood", ratio(float64(scatter), float64(total)), "ratio", 0)

	// The same flood at two workers. Informational: on a two-vCPU host
	// it alternates between two modes run by run (README "Sizing").
	f2, err := newFlood(cfg.floodN, cfg.floodFanout, cfg.floodRounds, salt, 2, nil)
	if err != nil {
		return err
	}
	lat2 := l.okLatencies("flood w2", runOps(ctx, f2, cfg.reps, nil))
	f2.close() //nolint:errcheck // never fails
	l.put("engine.w2_speedup", ratio(float64(p50), float64(fastDur(lat2))), "ratio", len(lat2))

	// One word per node per round: what a round costs when it carries
	// next to nothing.
	fs, err := newFlood(cfg.msspN, 1, cfg.sparseRounds, salt, pinnedWorkers, nil)
	if err != nil {
		return err
	}
	latS := l.okLatencies("sparse rounds", runOps(ctx, fs, cfg.reps, l.tr))
	fs.close() //nolint:errcheck // never fails
	l.put("engine.sparse_round_us", ratio(ms(fastDur(latS))*1000, float64(cfg.sparseRounds)), "us", len(latS))

	// All-to-all exchange through engine.Outbox at the matmul size.
	n := cfg.apspN
	eng, err := engine.New(n, engine.Options{Workers: pinnedWorkers})
	if err != nil {
		return err
	}
	defer eng.Close()
	var exLat []time.Duration
	var exWords float64
	for rep := 0; rep <= cfg.reps; rep++ { // rep 0 warms the engine
		state := make([]exchangeNode, n)
		nodes := make([]engine.Node, n)
		var rowSum uint64
		for v := range state {
			row := make([]uint64, cfg.outboxWords)
			for j := range row {
				row[j] = floodWord(salt, v, core.Round(j))
				rowSum += row[j]
			}
			state[v] = exchangeNode{row: row, ob: engine.NewOutbox(n)}
			nodes[v] = &state[v]
		}
		runtime.GC()
		var st *engine.Stats
		d, err := l.span("Outbox exchange", "engine", func() (err error) {
			st, err = eng.Run(ctx, nodes)
			return err
		})
		if err != nil {
			return err
		}
		if rep == 0 {
			continue
		}
		exLat, exWords = append(exLat, d), float64(st.TotalMsgs)
		var bad error
		for v := range state {
			var own uint64
			for _, w := range state[v].row {
				own += w
			}
			if state[v].recv != uint64(cfg.outboxWords*(n-1)) || state[v].sum != rowSum-own {
				bad = fmt.Errorf("node %d received %d words, checksum %d", v, state[v].recv, state[v].sum)
			}
		}
		l.verify("Outbox exchange", bad)
	}
	obNs := ratio(float64(fastDur(exLat)), exWords)
	l.put("engine.outbox_ns_per_word", obNs, "ns/word", len(exLat))
	l.put("engine.outbox_over_flood", ratio(obNs, l.get("engine.flood_ns_per_word")), "ratio", 0)
	return nil
}

// ---- matmul: single passes on apsp-160's operands ----

func sameMatrix(a, b *matmul.Matrix) error {
	if a.N != b.N || !slices.Equal(a.Rows, b.Rows) || !slices.Equal(a.Cols, b.Cols) || !slices.Equal(a.Vals, b.Vals) {
		return errors.New("distributed product differs from MulRef")
	}
	return nil
}

// passResult is one timed product pass: build, run on the engine, and
// harvest, as a kernel pays for it.
type passResult struct {
	wall   time.Duration // median over reps
	stats  *engine.Stats
	sparse *matmul.Matrix
	dense  *matmul.Dense
}

// timePass runs the pass build() prepares reps times directly on eng
// (plus one untimed warm-up) and harvests it with the matching
// accessor.
func (l *ladder) timePass(ctx context.Context, eng *engine.Engine, name string, dense bool, build func() (*matmul.Pass, error)) (passResult, error) {
	var res passResult
	var walls []time.Duration
	for rep := 0; rep <= l.cfg.reps; rep++ {
		runtime.GC()
		d, err := l.span(name, "matmul", func() error {
			p, err := build()
			if err != nil {
				return err
			}
			if res.stats, err = eng.RunBounded(ctx, p.Nodes(), p.MaxRoundsHint()); err != nil {
				return err
			}
			if err := p.Gather(); err != nil {
				return err
			}
			if dense {
				res.dense = p.Dense()
			} else {
				res.sparse = p.Sparse()
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		if rep > 0 {
			walls = append(walls, d)
		}
	}
	res.wall = fastDur(walls)
	return res, nil
}

// lastSquaringOperand squares a by MulRef until the next squaring
// would be the power kernels' last one (hop horizon >= n-1), and
// returns that operand.
func lastSquaringOperand(a *matmul.Matrix) (*matmul.Matrix, error) {
	d := a
	for span := 1; 2*span < a.N-1; span *= 2 {
		var err error
		if d, err = matmul.MulRef(d, d); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (l *ladder) matmulRungs(ctx context.Context) error {
	cfg := l.cfg
	g := genGraph(cfg, cfg.apspN, "apsp")
	n := g.N
	a, err := matmul.FromGraph(g, core.MinPlus(), true)
	if err != nil {
		return err
	}
	ab, err := matmul.FromGraph(g, core.BoolOrAnd(), true)
	if err != nil {
		return err
	}
	var d, db, wantSparse, wantDense, wantBool *matmul.Matrix
	var refDense time.Duration
	l.timeOracle(func() {
		d, err = lastSquaringOperand(a)
		if err == nil {
			db, err = lastSquaringOperand(ab)
		}
		if err == nil {
			wantSparse, err = matmul.MulRef(a, a)
		}
		if err == nil {
			wantBool, err = matmul.MulRef(db, db)
		}
	})
	if err != nil {
		return err
	}
	refs, err := timeN(cfg.reps, func() (err error) { wantDense, err = matmul.MulRef(d, d); return err })
	if err != nil {
		return err
	}
	refDense = fastDur(refs)
	l.oracle += refDense * time.Duration(len(refs))

	eng, err := engine.New(n, engine.Options{Workers: pinnedWorkers})
	if err != nil {
		return err
	}
	defer eng.Close()

	sp, err := l.timePass(ctx, eng, "matmul.Pass sparse A*A", false, func() (*matmul.Pass, error) { return matmul.NewPass(a, a, false) })
	if err != nil {
		return err
	}
	l.verify("sparse pass", sameMatrix(sp.sparse, wantSparse))
	l.put("matmul.sparse_pass_s", secs(sp.wall), "s", cfg.reps)
	l.put("matmul.sparse_pass_rounds", float64(sp.stats.Rounds), "count", 0)
	l.put("matmul.sparse_pass_words", float64(sp.stats.TotalMsgs), "count", 0)
	l.put("matmul.nnz_out_share", ratio(float64(sp.sparse.NNZ()), float64(n*n)), "ratio", 0)

	dp, err := l.timePass(ctx, eng, "matmul.Pass dense D*D", false, func() (*matmul.Pass, error) { return matmul.NewPass(d, d, false) })
	if err != nil {
		return err
	}
	l.verify("dense pass", sameMatrix(dp.sparse, wantDense))
	denseNs := ratio(float64(dp.wall), float64(dp.stats.TotalMsgs))
	l.put("matmul.dense_pass_s", secs(dp.wall), "s", cfg.reps)
	l.put("matmul.dense_pass_rounds", float64(dp.stats.Rounds), "count", 0)
	l.put("matmul.dense_pass_words", float64(dp.stats.TotalMsgs), "count", 0)
	l.put("matmul.dense_pass_ns_per_word", denseNs, "ns/word", 0)
	l.put("matmul.over_engine", ratio(denseNs, l.get("engine.flood_ns_per_word")), "ratio", 0)
	l.put("matmul.ref_dense_s", secs(refDense), "s", len(refs))
	l.put("matmul.pass_over_ref", ratio(secs(dp.wall), secs(refDense)), "ratio", 0)

	bp, err := l.timePass(ctx, eng, "matmul.Pass boolean D*D", false, func() (*matmul.Pass, error) { return matmul.NewPass(db, db, false) })
	if err != nil {
		return err
	}
	l.verify("boolean dense pass", sameMatrix(bp.sparse, wantBool))
	l.put("matmul.bool_dense_pass_s", secs(bp.wall), "s", cfg.reps)

	// The stage-2 product: hopset-augmented adjacency times the n x k
	// distance columns, three hops in so the columns are filled.
	sources := evenSources(n)
	var aug *matmul.Matrix
	var cols, wantCols *matmul.Dense
	l.timeOracle(func() {
		var hs *hopset.Hopset
		if hs, err = hopset.ConstructRef(g, hopset.Params{Eps: eps}); err != nil {
			return
		}
		if aug, err = hopset.Augment(hs.Base, hs); err != nil {
			return
		}
		cols = matmul.NewDense(n, len(sources), core.MinPlus())
		for j, s := range sources {
			cols.Row(s)[j] = 0
		}
		for hop := 0; hop < 3 && err == nil; hop++ {
			cols, err = matmul.MulDenseRef(aug, cols)
		}
		if err == nil {
			wantCols, err = matmul.MulDenseRef(aug, cols)
		}
	})
	if err != nil {
		return err
	}
	mp, err := l.timePass(ctx, eng, "matmul.DensePass S*B", true, func() (*matmul.Pass, error) { return matmul.NewDensePass(aug, cols, false) })
	if err != nil {
		return err
	}
	var bad error
	if !slices.Equal(mp.dense.Vals, wantCols.Vals) {
		bad = errors.New("distributed product differs from MulDenseRef")
	}
	l.verify("dense-operand pass", bad)
	l.put("matmul.densemul_pass_s", secs(mp.wall), "s", cfg.reps)
	return nil
}

// ---- one kernel and Session.Run: apsp, hopset construction, relaxation ----

// sessionRun runs kernel k on sess as one span and returns its wall
// time and the session stats it added.
func (l *ladder) sessionRun(ctx context.Context, sess *clique.Session, k clique.Kernel, layer string) (time.Duration, clique.Stats, error) {
	runtime.GC()
	before := sess.Stats()
	d, err := l.span("Session.Run "+k.Name(), layer, func() error { return sess.Run(ctx, k) })
	after := sess.Stats()
	return d, clique.Stats{
		Runs: after.Runs - before.Runs,
		Engine: engine.Stats{
			Rounds:    after.Engine.Rounds - before.Engine.Rounds,
			TotalMsgs: after.Engine.TotalMsgs - before.Engine.TotalMsgs,
			Wall:      after.Engine.Wall - before.Engine.Wall,
		},
	}, err
}

// putShares records where one Session.Run's wall time went: handler
// compute and router scatter from the round hook, and the host share
// outside every engine pass.
func (l *ladder) putShares(suffix string, wall time.Duration, st clique.Stats, tap *roundTap) {
	_, compute, scatter := tap.phaseSums()
	l.put("engine.compute_share_"+suffix, ratio(float64(compute), float64(wall)), "ratio", 0)
	l.put("engine.scatter_share_"+suffix, ratio(float64(scatter), float64(wall)), "ratio", 0)
	l.put("algo.host_share_"+suffix, ratio(float64(wall-st.Engine.Wall), float64(wall)), "ratio", 0)
}

func (l *ladder) kernelRungs(ctx context.Context) error {
	cfg := l.cfg

	// Exact APSP on apsp-160's graph: the kernel rung over the dense
	// pass rung.
	ga := genGraph(cfg, cfg.apspN, "apsp")
	tap := &roundTap{}
	sa, err := newSession(ga, tap)
	if err != nil {
		return err
	}
	defer sa.Close()
	ak := algo.NewAPSPKernel()
	wall, st, err := l.sessionRun(ctx, sa, ak, "algo")
	if err != nil {
		return err
	}
	l.putShares("apsp", wall, st, tap)
	var bad error
	l.timeOracle(func() {
		for s := 0; s < ga.N && bad == nil; s++ {
			if !slices.Equal(ak.Dist()[s], algo.BellmanFordRef(ga, core.NodeID(s))) {
				bad = fmt.Errorf("row %d differs from BellmanFordRef", s)
			}
		}
	})
	l.verify("apsp kernel", bad)
	l.put("algo.apsp_s", secs(wall), "s", 1)
	l.put("algo.apsp_passes", float64(st.Runs), "count", 0)
	l.put("algo.kernel_over_matmul", ratio(ratio(float64(wall), float64(st.Engine.TotalMsgs)),
		l.get("matmul.dense_pass_ns_per_word")), "ratio", 0)

	// The two stages of mssp-256, each as its own kernel on one session.
	gm := genGraph(cfg, cfg.msspN, "mssp")
	sources := evenSources(gm.N)
	sm, err := newSession(gm, tap)
	if err != nil {
		return err
	}
	defer sm.Close()
	tap.phaseSums()
	ck := hopset.NewConstructKernel(hopset.Params{Eps: eps})
	cWall, cSt, err := l.sessionRun(ctx, sm, ck, "hopset")
	if err != nil {
		return err
	}
	l.putShares("hopset", cWall, cSt, tap)
	hs := ck.Hopset()
	var aug *matmul.Matrix
	augWall, err := l.span("hopset.Augment", "hopset", func() (err error) {
		aug, err = hopset.Augment(hs.Base, hs)
		return err
	})
	if err != nil {
		return err
	}
	var ref *hopset.Hopset
	refWall := l.timeOracle(func() { ref, err = hopset.ConstructRef(gm, hopset.Params{Eps: eps}) })
	if err != nil {
		return err
	}
	l.verify("hopset construction", sameMatrix(hs.Shortcuts, ref.Shortcuts))
	l.put("hopset.construct_s", secs(cWall), "s", 1)
	l.put("hopset.construct_rounds", float64(cSt.Engine.Rounds), "count", 0)
	l.put("hopset.construct_words", float64(cSt.Engine.TotalMsgs), "count", 0)
	l.put("hopset.construct_passes", float64(cSt.Runs), "count", 0)
	l.put("hopset.beta", float64(hs.Beta), "count", 0)
	l.put("hopset.hubs", float64(len(hs.Hubs)), "count", 0)
	l.put("hopset.shortcuts", float64(hs.Shortcuts.NNZ()), "count", 0)
	l.put("hopset.augment_ms", ms(augWall), "ms", 1)
	l.put("hopset.ref_s", secs(refWall), "s", 1)

	rk := algo.NewRelaxKernel(aug, sources, algo.RelaxProducts(hs.Beta, gm.N))
	rWall, rSt, err := l.sessionRun(ctx, sm, rk, "algo")
	if err != nil {
		return err
	}
	l.putShares("relax", rWall, rSt, tap)
	exact := make([][]int64, len(sources))
	oracleWall := l.timeOracle(func() {
		for j, s := range sources {
			exact[j] = algo.BellmanFordRef(gm, s)
		}
	})
	stretch := 1.0
	for j := range sources {
		l.verify("relax kernel", checkBracket(fmt.Sprintf("relax source %d", sources[j]), rk.Dist()[j], exact[j]))
		for v, d := range exact[j] {
			if d > 0 {
				stretch = max(stretch, float64(rk.Dist()[j][v])/float64(d))
			}
		}
	}
	l.put("hopset.stretch_max", stretch, "ratio", 0)
	l.put("algo.relax_s", secs(rWall), "s", 1)
	l.put("algo.relax_rounds", float64(rSt.Engine.Rounds), "count", 0)
	l.put("algo.relax_words", float64(rSt.Engine.TotalMsgs), "count", 0)
	l.put("algo.relax_passes", float64(rSt.Runs), "count", 0)
	l.put("algo.stage1_share", ratio(secs(cWall), secs(cWall+augWall+rWall)), "ratio", 0)
	l.put("algo.oracle_s", secs(oracleWall), "s", 1)
	l.put("algo.run_over_oracle", ratio(secs(cWall+augWall+rWall), secs(oracleWall)), "ratio", 0)
	return nil
}

// ---- clique: what a session costs to build, and to run cold ----

func (l *ladder) cliqueRungs(ctx context.Context) error {
	cfg := l.cfg
	gm := genGraph(cfg, cfg.msspN, "mssp")
	builds, err := timeN(cfg.reps+2, func() error {
		s, err := newSession(gm, nil)
		if err == nil {
			s.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	l.put("clique.session_new_ms", median(durationsMs(builds)), "ms", len(builds))

	// The serving-size approximate query, cold then warm: the first run
	// on a fresh session against the warm median, and what a warm run
	// allocates.
	gs := genGraph(cfg, cfg.serveN, "ladder-serve")
	sess, err := newSession(gs, nil)
	if err != nil {
		return err
	}
	defer sess.Close()
	newKernel := func() clique.Kernel {
		return algo.NewApproxKSourceKernel([]core.NodeID{0}, hopset.Params{Eps: eps})
	}
	cold, _, err := l.sessionRun(ctx, sess, newKernel(), "clique")
	if err != nil {
		return err
	}
	warmRuns := cfg.reps + 2
	var before, after runtime.MemStats
	var warm []time.Duration
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < warmRuns; i++ {
		t0 := time.Now()
		if err := sess.Run(ctx, newKernel()); err != nil {
			return err
		}
		warm = append(warm, time.Since(t0))
	}
	runtime.ReadMemStats(&after)
	l.put("clique.cold_over_warm", ratio(ms(cold), median(durationsMs(warm))), "ratio", len(warm))
	l.put("clique.alloc_mb_per_run", float64(after.TotalAlloc-before.TotalAlloc)/float64(warmRuns)/(1<<20), "MB", warmRuns)
	l.put("clique.gc_cycles_per_run", float64(after.NumGC-before.NumGC)/float64(warmRuns), "count", warmRuns)
	return nil
}

// ---- graph: generate, parse, and the size of an upload ----

func (l *ladder) graphRungs(context.Context) error {
	cfg := l.cfg
	var g *graph.CSR
	gen, _ := timeN(cfg.reps+2, func() error { g = genGraph(cfg, cfg.msspN, "mssp"); return nil })
	l.put("graph.generate_ms", median(durationsMs(gen)), "ms", len(gen))
	text := edgeList(g)
	var parsed *graph.CSR
	load, err := timeN(cfg.reps+2, func() (err error) { parsed, err = graph.LoadEdgeList(bytes.NewReader(text)); return err })
	if err != nil {
		return err
	}
	var bad error
	if parsed.N != g.N || !slices.Equal(parsed.Targets, g.Targets) || !slices.Equal(parsed.Weights, g.Weights) {
		bad = errors.New("LoadEdgeList(WriteEdgeList(g)) differs from g")
	}
	l.verify("edge-list round trip", bad)
	l.put("graph.load_edgelist_ms", median(durationsMs(load)), "ms", len(load))
	l.put("graph.upload_bytes", float64(len(edgeList(genGraph(cfg, cfg.serveN, "ladder-serve")))), "bytes", 0)
	return nil
}

// ---- server and client: handler in process, then over HTTP ----

// handlerRung measures the approximate-query handler with no network:
// ServeHTTP into a ResponseRecorder, one caller, warm hopset cache.
func (l *ladder) handlerRung(g *graph.CSR, exact [][]int64) error {
	srv := server.New(serverOptions)
	defer srv.Close()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	if rec := post("/graphs?name=h", edgeList(g)); rec.Code != http.StatusCreated {
		return fmt.Errorf("handler upload: status %d: %s", rec.Code, rec.Body)
	}
	query := func(src int) (*httptest.ResponseRecorder, time.Duration, error) {
		body, _ := json.Marshal(api.ApproxSSSPRequest{Source: int64(src), Eps: eps})
		var rec *httptest.ResponseRecorder
		d, _ := l.span("Server.ServeHTTP approx-sssp", "server", func() error {
			rec = post("/graphs/h/approx-sssp", body)
			return nil
		})
		if rec.Code != http.StatusOK {
			return rec, d, fmt.Errorf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return rec, d, nil
	}
	if _, _, err := query(0); err != nil { // fills the hopset cache
		return fmt.Errorf("handler cold query: %w", err)
	}
	var lat []time.Duration
	var respBytes int
	for i := 0; i < 5*l.cfg.reps; i++ {
		src := (i * 7) % g.N
		rec, d, err := query(src)
		if err == nil {
			respBytes = rec.Body.Len()
			var resp api.ApproxSSSPResponse
			if err = json.Unmarshal(rec.Body.Bytes(), &resp); err == nil {
				err = checkBracket(fmt.Sprintf("handler source %d", src), resp.Dist, exact[src])
			}
		}
		l.verify("handler query", err)
		if err == nil {
			lat = append(lat, d)
		}
	}
	l.put("server.handler_p50_ms", median(durationsMs(lat)), "ms", len(lat))
	l.put("server.response_kb", float64(respBytes)/1024, "KB", 0)
	return nil
}

func (l *ladder) servingRungs(ctx context.Context) error {
	cfg := l.cfg
	w, err := newWarm(cfg, cfg.warmClients, "ladder-serve")
	if err != nil {
		return err
	}
	defer func() {
		if w != nil { // an earlier rung failed; its error is the one reported
			w.close() //nolint:errcheck
		}
	}()
	l.timeOracle(w.prepareOracle)
	if err := l.handlerRung(w.g, w.exact); err != nil {
		return err
	}
	l.put("server.start_ms", ms(w.started), "ms", 1)

	// Steady state, as serve-warm-128 drives it.
	r0, w0, k0, err := metricsCounters(ctx, w.c)
	if err != nil {
		return err
	}
	ops, _ := measure(ctx, w, cfg.ladderQuery, l.tr, nil)
	r1, w1, k1, err := metricsCounters(ctx, w.c)
	if err != nil {
		return err
	}
	var lat, kernel, overhead, batch, passes []float64
	hits := 0
	for _, r := range ops {
		l.verify("steady-state query", r.err)
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.latency))
		kernel = append(kernel, ms(r.engineWall))
		overhead = append(overhead, ms(r.latency-r.engineWall))
		batch = append(batch, float64(r.batch))
		passes = append(passes, r.passes)
		if r.cacheHit {
			hits++
		}
	}
	q := float64(len(ops))
	l.put("server.kernel_wall_p50_ms", median(kernel), "ms", len(kernel))
	l.put("server.overhead_p50_ms", median(overhead), "ms", len(overhead))
	l.put("server.query_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	l.put("server.batch_size_mean", mean(batch), "count", len(batch))
	l.put("server.cache_hit_share", ratio(float64(hits), q), "ratio", len(ops))
	l.put("server.kernel_runs_per_query", ratio(k1-k0, q), "count", 0)
	l.put("server.rounds_per_query", ratio(r1-r0, q), "count", 0)
	l.put("server.words_per_query", ratio(w1-w0, q), "count", 0)
	l.put("server.passes_per_query", mean(passes), "count", 0)

	scrapes, err := timeN(cfg.reps+2, func() error { _, err := w.c.Metrics(ctx); return err })
	if err != nil {
		return err
	}
	l.put("server.metrics_scrape_ms", median(durationsMs(scrapes)), "ms", len(scrapes))

	// The HTTP floor, and one caller alone (batch size 1) to set
	// against the in-process handler.
	pings, err := timeN(30*cfg.reps, func() error { return w.c.Healthz(ctx) })
	if err != nil {
		return err
	}
	l.put("client.healthz_p50_us", median(durationsMs(pings))*1000, "us", len(pings))
	solo := l.okLatencies("single-caller query", runOps(ctx, w, 5*cfg.reps, l.tr))
	q1 := median(durationsMs(solo))
	l.put("client.query1_p50_ms", q1, "ms", len(solo))
	l.put("client.http_overhead_p50_ms", q1-l.get("server.handler_p50_ms"), "ms", 0)

	// Upload, first answer, delete, as serve-churn-128 drives them.
	ch, err := newChurn(cfg, w.d)
	if err != nil {
		return err
	}
	l.timeOracle(ch.prepareOracle)
	var up, del, coldKernel []float64
	for _, r := range runOps(ctx, ch, cfg.churnGraphs, l.tr) {
		l.verify("churn cycle", r.err)
		if r.err == nil {
			up, del, coldKernel = append(up, ms(r.upload)), append(del, ms(r.del)), append(coldKernel, ms(r.engineWall))
		}
	}
	l.put("server.upload_p50_ms", median(up), "ms", len(up))
	l.put("server.delete_p50_ms", median(del), "ms", len(del))
	l.put("server.cold_kernel_wall_p50_ms", median(coldKernel), "ms", len(coldKernel))
	l.put("server.peak_rss_mb", w.peakRSSMB(), "MB", 0)
	err = w.close()
	w = nil
	return err
}
