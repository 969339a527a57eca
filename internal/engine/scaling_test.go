// GOMAXPROCS scaling guards: the router's zero-allocation steady state
// and the engine's flood throughput must hold at 1, 2, and 4 procs —
// parallelism must never cost allocations, and adding workers must
// never collapse throughput.
package engine

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// scalingProcs is the proc ladder both guards walk.
var scalingProcs = []int{1, 2, 4}

// routerRound drives one full router round of the BenchmarkRouter
// workload: every node sends to fanout ring successors, all shards
// scatter, banks flip. Worker 0's Ctx is bound to each node in turn,
// as the engine's runNodes does.
func routerRound(t testing.TB, rt *router, n, fanout int) {
	t.Helper()
	c := rt.ctxs[0]
	for src := 0; src < n; src++ {
		c.bind(core.NodeID(src))
		for k := 1; k <= fanout; k++ {
			if err := c.Send(core.NodeID((src+k)%n), uint64(src)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < rt.shards; s++ {
		rt.scatterShard(s)
	}
	rt.finishRound()
}

// TestRouterZeroAllocsAcrossProcs pins the router hot path's steady
// state at zero allocations per round at every rung of the proc
// ladder: boxes must retain capacity regardless of how much parallelism
// surrounds them.
func TestRouterZeroAllocsAcrossProcs(t *testing.T) {
	const (
		n      = 256
		shards = 8
		fanout = 16
	)
	for _, procs := range scalingProcs {
		t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			rt := newRouter(n, 1, shards)
			for i := 0; i < 3; i++ {
				routerRound(t, rt, n, fanout) // reach steady-state capacity
			}
			allocs := testing.AllocsPerRun(10, func() {
				routerRound(t, rt, n, fanout)
			})
			if allocs != 0 {
				t.Errorf("router round allocates %.1f times at GOMAXPROCS=%d, want 0", allocs, procs)
			}
		})
	}
}

// floodThroughput measures the flood workload's messages per second at
// the given GOMAXPROCS, best of three runs to shave scheduler noise.
func floodThroughput(t *testing.T, procs int) float64 {
	t.Helper()
	const (
		n      = 256
		fanout = 32
		rounds = 16
	)
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	best := 0.0
	for i := 0; i < 3; i++ {
		nodes := make([]Node, n)
		for j := range nodes {
			nodes[j] = &floodBenchNode{n: n, fanout: fanout, rounds: rounds}
		}
		stats, err := RunOnce(nodes, Options{MaxRounds: rounds + 2})
		if err != nil {
			t.Fatal(err)
		}
		if secs := stats.Wall.Seconds(); secs > 0 {
			if rate := float64(stats.TotalMsgs) / secs; rate > best {
				best = rate
			}
		}
	}
	if best == 0 {
		t.Fatal("flood throughput measured as zero")
	}
	return best
}

// TestFloodThroughputNonDegrading checks that adding workers never
// collapses engine throughput: msgs/sec at 2 and 4 procs must stay
// within a generous slack of the single-proc rate. This is a
// regression tripwire for barrier or scatter serialization, not a
// speedup assertion — shared CI runners are too noisy to demand
// linear scaling. Rungs above the host's CPU count are skipped: more
// barrier workers than cores measures the OS scheduler, not the engine.
func TestFloodThroughputNonDegrading(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("single-CPU host: scaling comparison is meaningless")
	}
	base := floodThroughput(t, scalingProcs[0])
	for _, procs := range scalingProcs[1:] {
		if procs > runtime.NumCPU() {
			t.Logf("skipping GOMAXPROCS=%d on a %d-CPU host", procs, runtime.NumCPU())
			continue
		}
		rate := floodThroughput(t, procs)
		if rate < base*0.35 {
			t.Errorf("flood throughput at GOMAXPROCS=%d is %.0f msgs/s, degraded beyond slack from %.0f at GOMAXPROCS=1",
				procs, rate, base)
		}
	}
}
