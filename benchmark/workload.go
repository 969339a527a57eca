package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// sizes fixes every input dimension of the benchmark. realSizes is what
// BENCHMARK.json measures; the smoke test shrinks it to toy size. The
// reasons for the real values are in README.md ("Sizing").
type sizes struct {
	floodN, floodFanout, floodRounds int // flood-1024
	apspN                            int // apsp-160, closure-160, and the matmul ladder
	msspN                            int // mssp-256, and the hopset/relax ladder
	serveN                           int // serve-warm-128, serve-churn-128
	churnGraphs                      int // distinct graphs a churn client cycles through
	warmClients                      int // closed-loop clients of serve-warm-128

	calWords     int // messages the calibration loop scatters (calibrate.go)
	setups       int // set-up repetitions per end-to-end run
	tracedOps    int // batch operations per half (untraced, traced) of a traced run
	reps         int // repetitions of each cheap ladder rung
	outboxWords  int // words per ordered pair in the Outbox exchange rung
	sparseRounds int // rounds of the one-word-per-node rung
	ladderQuery  time.Duration
}

var realSizes = sizes{
	floodN: 1024, floodFanout: 64, floodRounds: 256,
	apspN: 160, msspN: 256, serveN: 128,
	churnGraphs: 8, warmClients: 2,
	calWords: 1 << 20, setups: 3, tracedOps: 3, reps: 3,
	outboxWords: 64, sparseRounds: 2000,
	ladderQuery: 2500 * time.Millisecond,
}

// Graph model shared by every workload: G(n, 0.05) with integer weights
// in [1, 32], and the approximation slack of every (1+eps) query.
const (
	edgeProb  = 0.05
	maxWeight = 32
	eps       = 0.25
	// pinnedWorkers is the engine worker count of every engine, session
	// and ccserve the benchmark starts: one core does kernel work, the
	// other carries the load generator, HTTP and GC (README "Sizing").
	pinnedWorkers = 1
)

// config is one run's inputs: the sizes, the seed every graph and query
// sequence derives from, the measuring window, and how to start the
// serving daemon (a ccserve child process, or in-process for the test).
type config struct {
	sizes
	seed   int64
	window time.Duration
	launch func() (*daemon, error)
}

// opResult is what one operation (a batch run, a query, or a churn
// cycle) reports: its timed latency, the engine telemetry the layer
// below returned for it, and err when it failed or its output did not
// match the sequential oracle.
type opResult struct {
	latency    time.Duration
	done       time.Time // when op returned; set by measure
	engineWall time.Duration
	rounds     float64
	words      float64
	passes     float64
	err        error

	// Serving operations only.
	upload, del time.Duration
	batch       int
	cacheHit    bool
}

// instance is one set-up workload, ready to run operations.
type instance interface {
	// clients is the number of closed-loop callers that run op
	// concurrently.
	clients() int
	// prepareOracle computes, outside every timer, what op verifies
	// its outputs against.
	prepareOracle()
	// op runs and verifies operation i of client c, recording spans
	// into tr when it is non-nil.
	op(ctx context.Context, c, i int, tr *tracer) opResult
	// peakRSSMB is the high-water resident set of the process that
	// does the kernel work.
	peakRSSMB() float64
	close() error
}

// scraper is implemented by the serving instances: the daemon's own
// cumulative rounds and words from /metrics. A response carries rounds
// but not words, so their per-operation counts come from here.
type scraper interface {
	counters(ctx context.Context) (rounds, words float64, err error)
}

// workload is one named entry of BENCHMARK.json. setup does everything
// setup_s covers: input generation, session or daemon start, warm-up.
// tap is nil for end-to-end runs (no hook is installed at all).
type workload struct {
	name  string
	setup func(cfg *config, tap *roundTap) (instance, error)
}

var workloads = []workload{
	{"flood-1024", setupFlood},
	{"apsp-160", setupAPSP},
	{"closure-160", setupClosure},
	{"mssp-256", setupMSSP},
	{"serve-warm-128", setupServeWarm},
	{"serve-churn-128", setupServeChurn},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// measure runs inst's clients closed-loop for window and returns every
// operation's result in completion order per client, plus the elapsed
// wall time from the first operation's start to the last one's end.
// With a calibrator, client 0 samples it between operations.
func measure(ctx context.Context, inst instance, window time.Duration, tr *tracer, cal *calibrator) ([]opResult, time.Duration) {
	n := inst.clients()
	perClient := make([][]opResult, n)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				if c == 0 && cal != nil {
					cal.sampleIfDue()
				}
				r := inst.op(ctx, c, i, tr)
				r.done = time.Now()
				perClient[c] = append(perClient[c], r)
			}
			if c == 0 && cal != nil {
				cal.sample()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opResult
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all, elapsed
}

// runOps runs exactly count operations on client 0, for the ladder's
// fixed-size rungs.
func runOps(ctx context.Context, inst instance, count int, tr *tracer) []opResult {
	out := make([]opResult, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, inst.op(ctx, 0, i, tr))
	}
	return out
}

// roundTap is the benchmark's RoundHook for traced runs. It is
// installed at set-up (a hook cannot be added to a built engine) and
// stays silent until armed, so the untraced half of a traced run pays
// one branch per round. Armed, it records one span per pass, per round,
// and per round's handler phase under the operation's span, and sums
// the phase times the per-layer shares are computed from.
type roundTap struct {
	tr           *tracer
	parent, op   int
	pass         int // span id of the pass the current rounds belong to
	computeLayer string

	wall, compute, scatter time.Duration
}

// arm starts recording rounds as children of span parent; a nil tracer
// disarms.
func (t *roundTap) arm(tr *tracer, parent, op int) {
	if t == nil {
		return
	}
	t.tr, t.parent, t.op, t.pass = tr, parent, op, -1
}

func (t *roundTap) hook(rs engine.RoundStats) {
	t.wall += rs.Wall
	t.compute += rs.Compute
	t.scatter += rs.Scatter
	if t.tr == nil {
		return
	}
	end := time.Now()
	start := end.Add(-rs.Wall)
	if rs.Round == 0 || t.pass < 0 {
		t.pass = t.tr.add("pass", "engine", t.parent, t.op, start, end, nil)
	}
	t.tr.extend(t.pass, end)
	id := t.tr.add("round", "engine", t.pass, t.op, start, end, map[string]any{
		"round": int(rs.Round), "words": rs.Msgs,
		"scatter_us": float64(rs.Scatter) / float64(time.Microsecond),
	})
	t.tr.add("handlers", t.computeLayer, id, t.op, start, start.Add(rs.Compute), nil)
}

// phaseSums returns and clears the accumulated per-round phase times.
func (t *roundTap) phaseSums() (wall, compute, scatter time.Duration) {
	wall, compute, scatter = t.wall, t.compute, t.scatter
	t.wall, t.compute, t.scatter = 0, 0, 0
	return
}
