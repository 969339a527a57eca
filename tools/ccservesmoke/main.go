// ccservesmoke is the CI end-to-end smoke harness for the ccserve
// daemon: it execs a built ccserve binary on an ephemeral port, drives
// it through pkg/client — upload a seeded G(n, p) graph, exact sssp
// diffed against the sequential Bellman-Ford oracle, two approximate
// queries proving the hopset cache hits on the second, two
// reachability queries proving the closure cache hits, a /metrics
// scrape checked for the serving series — then sends SIGTERM and
// asserts the daemon drains and exits 0.
//
// Usage:
//
//	go build -o /tmp/ccserve ./cmd/ccserve
//	go run ./tools/ccservesmoke -bin /tmp/ccserve
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/pkg/client"
)

func main() {
	bin := flag.String("bin", "ccserve", "path to the ccserve binary")
	n := flag.Int("n", 64, "graph size")
	p := flag.Float64("p", 0.2, "edge probability")
	seed := flag.Int64("seed", 1, "graph seed")
	eps := flag.Float64("eps", 0.25, "approximation slack")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := smoke(ctx, *bin, *n, *p, *seed, *eps); err != nil {
		fmt.Fprintln(os.Stderr, "ccservesmoke:", err)
		os.Exit(1)
	}
	fmt.Println("ccserve smoke OK")
}

// smoke runs the whole scenario against one daemon process.
func smoke(ctx context.Context, bin string, n int, p float64, seed int64, eps float64) error {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	defer cmd.Process.Kill() // no-op once Wait has reaped a clean exit

	// The daemon prints its bound address once the listener is up.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println("[ccserve]", line)
			if rest, ok := strings.CutPrefix(line, "ccserve listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-ctx.Done():
		return fmt.Errorf("daemon never reported a listen address: %w", ctx.Err())
	}
	c := client.New("http://" + addr)
	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// Upload a seeded weighted G(n, p) graph.
	g := graph.RandomGNPWeighted(n, p, 9, seed)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return err
	}
	info, err := c.LoadGraph(ctx, "smoke", &buf)
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	fmt.Printf("loaded %s: n=%d edges=%d\n", info.ID, info.N, info.Edges)

	// Exact sssp must equal the sequential oracle.
	want := algo.BellmanFordRef(g, core.NodeID(0))
	sssp, err := c.SSSP(ctx, info.ID, 0)
	if err != nil {
		return fmt.Errorf("sssp: %w", err)
	}
	for v, d := range sssp.Dist {
		if d != want[v] {
			return fmt.Errorf("sssp vertex %d: daemon %d, oracle %d", v, d, want[v])
		}
	}
	fmt.Println("sssp matches BellmanFordRef")

	// Two approx queries: the second must be served from the hopset
	// cache, bit-identical, and both must respect the (1+eps) bound.
	first, err := c.ApproxSSSP(ctx, info.ID, 0, eps)
	if err != nil {
		return fmt.Errorf("approx-sssp #1: %w", err)
	}
	if first.CacheHit {
		return fmt.Errorf("first approx query claims a cache hit")
	}
	second, err := c.ApproxSSSP(ctx, info.ID, 0, eps)
	if err != nil {
		return fmt.Errorf("approx-sssp #2: %w", err)
	}
	if !second.CacheHit {
		return fmt.Errorf("second approx query missed the hopset cache")
	}
	for v := range first.Dist {
		if first.Dist[v] != second.Dist[v] {
			return fmt.Errorf("approx vertex %d: cached %d != full %d", v, second.Dist[v], first.Dist[v])
		}
		exact := want[v]
		d := first.Dist[v]
		if (exact < 0) != (d < 0) {
			return fmt.Errorf("approx vertex %d: reachability disagrees with oracle", v)
		}
		if exact >= 0 && (d < exact || float64(d) > (1+eps)*float64(exact)+1e-9) {
			return fmt.Errorf("approx vertex %d: %d outside [%d, (1+eps)*%d]", v, d, exact, exact)
		}
	}
	fmt.Printf("approx-sssp within (1+%g), cache hit on query 2 (passes %d -> %d)\n",
		eps, first.Passes, second.Passes)

	// Two reachability queries: the first runs the transitive-closure
	// kernel, the second answers from the cached closure with zero
	// rounds; both must agree with the oracle's reachability bits.
	r1, err := c.Reachable(ctx, info.ID, 0)
	if err != nil {
		return fmt.Errorf("reachable #1: %w", err)
	}
	if r1.CacheHit {
		return fmt.Errorf("first reachable query claims a cache hit")
	}
	r2, err := c.Reachable(ctx, info.ID, 0)
	if err != nil {
		return fmt.Errorf("reachable #2: %w", err)
	}
	if !r2.CacheHit || r2.Rounds != 0 {
		return fmt.Errorf("second reachable query not cached (hit=%v rounds=%d)", r2.CacheHit, r2.Rounds)
	}
	for v, r := range r1.Reachable {
		if want := want[v] >= 0; r != want || r2.Reachable[v] != want {
			return fmt.Errorf("reachable vertex %d: daemon %v/%v, oracle %v", v, r, r2.Reachable[v], want)
		}
	}
	fmt.Println("reachability matches oracle, closure cache hit on query 2")

	// The metrics surface must expose the serving series.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, series := range []string{
		"ccserve_engine_rounds_total",
		"ccserve_queries_total{kind=\"sssp\"} 1",
		"ccserve_queries_total{kind=\"approx-sssp\"} 2",
		"ccserve_queries_total{kind=\"reachable\"} 2",
		"ccserve_hopset_cache_hits_total 1",
		"ccserve_sessions_active 1",
		"ccserve_graphs_loaded 1",
		// The latency histograms: one exact sssp observation, and a
		// closing +Inf bucket proving the exposition is complete.
		"ccserve_query_duration_seconds_count{kind=\"sssp\"} 1",
		"ccserve_query_duration_seconds_bucket{kind=\"sssp\",le=\"+Inf\"} 1",
		"ccserve_query_duration_seconds_count{kind=\"approx-sssp\"} 2",
		"ccserve_kernel_wall_seconds_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(metrics, series) {
			return fmt.Errorf("/metrics missing %q", series)
		}
	}
	fmt.Println("/metrics reports serving series and latency histograms")

	// Clean shutdown: SIGTERM, drain, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling daemon: %w", err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			return fmt.Errorf("daemon exit after SIGTERM: %w", err)
		}
	case <-ctx.Done():
		return fmt.Errorf("daemon did not exit after SIGTERM: %w", ctx.Err())
	}
	fmt.Println("daemon drained and exited 0")
	return nil
}
