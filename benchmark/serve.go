package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/pkg/api"
	"github.com/paper-repo-growth/doryp20/pkg/client"
	"github.com/paper-repo-growth/doryp20/server"
)

// daemon is one running ccserve the serving workloads talk to.
type daemon struct {
	base string
	pid  string // "self" when the server runs in this process
	stop func() error
}

// serverOptions are ccserve's defaults with the worker count pinned;
// the in-process server of the handler rung and of the smoke test must
// behave like the `ccserve -workers 1` child the workloads measure.
var serverOptions = server.Options{Workers: pinnedWorkers, MaxBatch: 16, CoalesceWait: 2 * time.Millisecond}

// launchInProcess serves the same handler from this process over a
// loopback listener. The smoke test uses it so that tier-1 needs no
// second binary.
func launchInProcess() (*daemon, error) {
	srv := server.New(serverOptions)
	hs := httptest.NewServer(srv)
	return &daemon{base: hs.URL, pid: "self", stop: func() error {
		hs.Close()
		srv.Close()
		return nil
	}}, nil
}

// buildCCServe compiles cmd/ccserve from the checkout the benchmark
// runs in, into the git-ignored build directory at its root.
func buildCCServe(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "ccserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ccserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ccserve: %v\n%s", err, out)
	}
	return bin, nil
}

// launchCCServe starts bin as a child process on an ephemeral loopback
// port with its default batching flags and one engine worker, and
// returns once it reports its listen address.
func launchCCServe(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(pinnedWorkers))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "ccserve listening on "); ok {
				addr <- rest
			}
		}
	}()
	stop := func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case <-drained:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill() //nolint:errcheck // already failing; Wait reports it
		}
		return cmd.Wait()
	}
	select {
	case a := <-addr:
		return &daemon{base: "http://" + a, pid: strconv.Itoa(cmd.Process.Pid), stop: stop}, nil
	case <-drained:
		return nil, fmt.Errorf("ccserve exited before listening: %v", cmd.Wait())
	case <-time.After(15 * time.Second):
		stop() //nolint:errcheck // reporting the timeout instead
		return nil, errors.New("ccserve did not report a listen address within 15s")
	}
}

// edgeList serializes g in the upload format.
func edgeList(g *graph.CSR) []byte {
	var buf bytes.Buffer
	graph.WriteEdgeList(&buf, g) //nolint:errcheck // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// allPairsExact is the serving oracle: BellmanFordRef from every vertex.
func allPairsExact(g *graph.CSR) [][]int64 {
	out := make([][]int64, g.N)
	for s := range out {
		out[s] = algo.BellmanFordRef(g, core.NodeID(s))
	}
	return out
}

// metricsCounters scrapes the daemon's engine round and word totals.
func metricsCounters(ctx context.Context, c *client.Client) (rounds, words, kernelRuns float64, err error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(val, 64)
		switch name {
		case "ccserve_engine_rounds_total":
			rounds = v
		case "ccserve_engine_words_total":
			words = v
		case "ccserve_kernel_runs_total":
			kernelRuns = v
		}
	}
	return rounds, words, kernelRuns, nil
}

// approxQuery issues one timed approximate query and folds the
// response telemetry into an opResult: a coalesced batch's rounds and
// passes are shared equally by its queries. It records the query span
// and, under it, the engine time the response reports; that child's
// position inside the query is not known from outside, so it is drawn
// at the end and marked synthetic.
func approxQuery(ctx context.Context, c *client.Client, id string, src int64, parent, op int, tr *tracer) (api.ApproxSSSPResponse, opResult) {
	q := tr.begin("client.ApproxSSSP", "client", parent, op)
	t0 := time.Now()
	resp, err := c.ApproxSSSP(ctx, id, src, eps)
	end := time.Now()
	res := opResult{latency: end.Sub(t0), err: err}
	if err != nil {
		tr.finish(q, nil)
		return resp, res
	}
	b := float64(max(resp.BatchSize, 1))
	res.engineWall = time.Duration(resp.WallNanos)
	res.rounds, res.passes = float64(resp.Rounds)/b, float64(resp.Passes)/b
	res.batch, res.cacheHit = resp.BatchSize, resp.CacheHit
	tr.finish(q, map[string]any{"batch_size": resp.BatchSize, "cache_hit": resp.CacheHit})
	tr.add("kernel rounds (wall_nanos)", "engine", q, op, end.Add(-res.engineWall), end, map[string]any{"synthetic": true})
	return resp, res
}

// ---- serve-warm-128: every query a hopset-cache hit ----

type warmInst struct {
	d       *daemon
	started time.Duration // launch to listening
	c       *client.Client
	g       *graph.CSR
	id      string
	nClient int
	rngs    []*rand.Rand // one query-source stream per client
	exact   [][]int64
}

// newWarm starts a daemon, uploads one graph, and fills its hopset
// cache with one cold query, which must report a miss.
func newWarm(cfg *config, nClient int, label string) (*warmInst, error) {
	g := genGraph(cfg, cfg.serveN, label)
	t0 := time.Now()
	d, err := cfg.launch()
	if err != nil {
		return nil, err
	}
	w := &warmInst{d: d, started: time.Since(t0), c: client.New(d.base), g: g, nClient: nClient}
	for c := 0; c < nClient; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(deriveSeed(cfg.seed, label+"-sources-"+strconv.Itoa(c)))))
	}
	ctx := context.Background()
	info, err := w.c.LoadGraph(ctx, "warm", bytes.NewReader(edgeList(g)))
	if err == nil {
		w.id = info.ID
		var cold api.ApproxSSSPResponse
		if cold, err = w.c.ApproxSSSP(ctx, w.id, 0, eps); err == nil && cold.CacheHit {
			err = errors.New("serve-warm: the cache-filling query reported a cache hit")
		}
	}
	if err != nil {
		d.stop() //nolint:errcheck // reporting the set-up error instead
		return nil, err
	}
	return w, nil
}

func setupServeWarm(cfg *config, _ *roundTap) (instance, error) {
	return newWarm(cfg, cfg.warmClients, "serve-warm")
}

func (w *warmInst) clients() int       { return w.nClient }
func (w *warmInst) prepareOracle()     { w.exact = allPairsExact(w.g) }
func (w *warmInst) peakRSSMB() float64 { return peakRSSMB(w.d.pid) }
func (w *warmInst) close() error       { return w.d.stop() }

func (w *warmInst) counters(ctx context.Context) (rounds, words float64, err error) {
	rounds, words, _, err = metricsCounters(ctx, w.c)
	return rounds, words, err
}

func (w *warmInst) op(ctx context.Context, c, i int, tr *tracer) opResult {
	src := int64(w.rngs[c].Intn(w.g.N))
	resp, res := approxQuery(ctx, w.c, w.id, src, -1, c<<24|i, tr)
	if res.err != nil {
		return res
	}
	if !resp.CacheHit {
		res.err = fmt.Errorf("serve-warm: query from %d missed the hopset cache", src)
	} else if w.exact != nil {
		res.err = checkBracket(fmt.Sprintf("serve-warm source %d", src), resp.Dist, w.exact[src])
	}
	return res
}

// ---- serve-churn-128: upload, first answer, delete ----

type churnInst struct {
	d      *daemon
	c      *client.Client
	graphs []*graph.CSR
	texts  [][]byte
	rng    *rand.Rand
	exact  [][][]int64 // per graph
}

// newChurn generates the graphs a churn client cycles through and runs
// one warm-up cycle against d.
func newChurn(cfg *config, d *daemon) (*churnInst, error) {
	ch := &churnInst{d: d, c: client.New(d.base),
		rng: rand.New(rand.NewSource(deriveSeed(cfg.seed, "serve-churn-sources")))}
	for k := 0; k < cfg.churnGraphs; k++ {
		g := genGraph(cfg, cfg.serveN, "serve-churn-"+strconv.Itoa(k))
		ch.graphs = append(ch.graphs, g)
		ch.texts = append(ch.texts, edgeList(g))
	}
	if r := ch.op(context.Background(), 0, -1, nil); r.err != nil { // warm-up cycle
		return nil, r.err
	}
	return ch, nil
}

func setupServeChurn(cfg *config, _ *roundTap) (instance, error) {
	d, err := cfg.launch()
	if err != nil {
		return nil, err
	}
	ch, err := newChurn(cfg, d)
	if err != nil {
		d.stop() //nolint:errcheck // reporting the set-up error instead
		return nil, err
	}
	return ch, nil
}

func (ch *churnInst) clients() int       { return 1 }
func (ch *churnInst) peakRSSMB() float64 { return peakRSSMB(ch.d.pid) }
func (ch *churnInst) close() error       { return ch.d.stop() }

func (ch *churnInst) prepareOracle() {
	for _, g := range ch.graphs {
		ch.exact = append(ch.exact, allPairsExact(g))
	}
}

func (ch *churnInst) counters(ctx context.Context) (rounds, words float64, err error) {
	rounds, words, _, err = metricsCounters(ctx, ch.c)
	return rounds, words, err
}

// op is one cycle. Its latency runs from the start of the upload to
// the first approximate answer; the delete that follows is part of the
// cycle (and of ops_per_s) but not of that latency.
func (ch *churnInst) op(ctx context.Context, _, i int, tr *tracer) opResult {
	k := (i + 1) % len(ch.graphs)
	g := ch.graphs[k]
	src := int64(ch.rng.Intn(g.N))
	name := "churn" + strconv.Itoa(i+1)

	cycle := tr.begin("cycle", "bench", -1, i)
	up := tr.begin("client.LoadGraph", "client", cycle, i)
	t0 := time.Now()
	info, err := ch.c.LoadGraph(ctx, name, bytes.NewReader(ch.texts[k]))
	upload := time.Since(t0)
	tr.finish(up, map[string]any{"bytes": len(ch.texts[k])})
	if err != nil {
		tr.finish(cycle, nil)
		return opResult{latency: upload, err: err}
	}
	resp, res := approxQuery(ctx, ch.c, info.ID, src, cycle, i, tr)
	res.latency = time.Since(t0)
	res.upload = upload

	del := tr.begin("client.DeleteGraph", "client", cycle, i)
	t1 := time.Now()
	derr := ch.c.DeleteGraph(ctx, info.ID)
	res.del = time.Since(t1)
	tr.finish(del, nil)
	tr.finish(cycle, nil)

	switch {
	case res.err != nil:
	case derr != nil:
		res.err = derr
	case resp.CacheHit:
		res.err = fmt.Errorf("serve-churn: first query on %s reported a cache hit", name)
	case ch.exact != nil:
		res.err = checkBracket(fmt.Sprintf("serve-churn graph %d source %d", k, src), resp.Dist, ch.exact[k][src])
	}
	return res
}
