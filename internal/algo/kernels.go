package algo

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// This file holds the single-pass message-passing kernels (BFS,
// Bellman-Ford, one distKernel shell) and the registry table. Every algorithm in the package
// is a clique.Kernel, so callers compose them on one warm Session; the
// multi-pass ones are thin shells over powerKernel (power.go) and
// pipelineKernel (pipeline.go). All kernels adapt to any input graph:
// unweighted graphs are treated as unit-weighted.

// errNoGraph is the error every graph-consuming kernel returns on a
// clique.NewSize session.
func errNoGraph(name string) error {
	return fmt.Errorf("algo: %s kernel requires a graph-bound session (clique.New, not NewSize)", name)
}

// checkSources validates source vertices against the session graph,
// before any engine pass is paid for.
func checkSources(name string, g *graph.CSR, sources ...core.NodeID) error {
	if g == nil {
		return errNoGraph(name)
	}
	return checkSourceRange(name, g.N, sources)
}

// checkSourceRange rejects source vertices outside [0, n).
func checkSourceRange(name string, n int, sources []core.NodeID) error {
	for _, src := range sources {
		if src < 0 || int(src) >= n {
			return fmt.Errorf("algo: %s source %d out of range [0,%d)", name, src, n)
		}
	}
	return nil
}

// checkNonNegative rejects negative arc weights, which the unsigned
// message words (and the non-negativity assumptions of every algorithm
// here) cannot represent.
func checkNonNegative(name string, g *graph.CSR) error {
	for _, w := range g.Weights {
		if w < 0 {
			return fmt.Errorf("algo: %s requires non-negative weights, got %d", name, w)
		}
	}
	return nil
}

// distKernel is the single-pass shell behind BFSKernel and
// BellmanFordKernel: one engine pass whose nodes keep their tentative
// distances in the pass's rows, which become the result.
type distKernel struct {
	name string
	src  core.NodeID
	// weighted treats an unweighted session graph as unit-weighted and
	// rejects negative weights, which the unsigned message words cannot
	// carry.
	weighted bool
	// node returns the handler every node of the pass runs over g from
	// src, node v keeping its distance in dist[v].
	node func(g *graph.CSR, src core.NodeID, dist []int64) engine.Node
	dist []int64
	done bool
}

// Name identifies the kernel.
func (k *distKernel) Name() string { return k.name }

// Next builds the pass on the first call and harvests the distance
// vector on the second.
func (k *distKernel) Next(g *graph.CSR) (clique.Pass, error) {
	if k.dist != nil {
		k.done = true
		return clique.Pass{}, nil
	}
	if err := checkSources(k.name, g, k.src); err != nil {
		return clique.Pass{}, err
	}
	if k.weighted {
		g = g.WithUnitWeights()
		if err := checkNonNegative(k.name, g); err != nil {
			return clique.Pass{}, err
		}
	}
	k.dist = make([]int64, g.N)
	for v := range k.dist {
		k.dist[v] = Unreached
	}
	nd := k.node(g, k.src, k.dist)
	nodes := make([]engine.Node, g.N)
	for v := range nodes {
		nodes[v] = nd
	}
	return clique.Pass{Nodes: nodes, Rows: k.dist, RowLen: 1}, nil
}

// Result returns the distance vector ([]int64), nil before completion.
func (k *distKernel) Result() any {
	if !k.done {
		return nil
	}
	return k.dist
}

// Dist returns the typed distance vector, nil before completion.
func (k *distKernel) Dist() []int64 {
	if !k.done {
		return nil
	}
	return k.dist
}

// BFSKernel computes single-source hop distances by a parallel
// breadth-first flood — one engine pass. Result/Dist hold the distance
// vector (Unreached for unreachable vertices) after completion.
type BFSKernel struct{ distKernel }

// NewBFSKernel returns a BFS kernel flooding from src.
func NewBFSKernel(src core.NodeID) *BFSKernel {
	return &BFSKernel{distKernel{name: "bfs", src: src, node: newBFSNode}}
}

// BellmanFordKernel computes single-source shortest-path distances by
// iterated parallel relaxation — one engine pass. Unweighted session
// graphs are treated as unit-weighted, so the kernel runs on any input;
// negative weights are rejected.
type BellmanFordKernel struct{ distKernel }

// NewBellmanFordKernel returns a Bellman-Ford kernel relaxing from src.
func NewBellmanFordKernel(src core.NodeID) *BellmanFordKernel {
	return &BellmanFordKernel{distKernel{name: "bellman-ford", src: src, weighted: true, node: newBFordNode}}
}

// logHops is the per-product hop horizon the registry's demonstration
// kernels and the diameter estimators use: around log n, the regime
// hopsets target. Any value >= 1 is correct.
func logHops(n int) int { return core.Log2Ceil(n) + 1 }

// demoSources picks the registry's demonstration source set: vertex 0,
// plus the middle vertex once the graph has more than two.
func demoSources(g *graph.CSR) []core.NodeID {
	sources := []core.NodeID{}
	if g.N > 0 {
		sources = append(sources, 0)
	}
	if g.N > 2 {
		sources = append(sources, core.NodeID(g.N/2))
	}
	return sources
}

// init registers the algorithm kernels with demonstration parameters
// chosen from the graph, so ccbench -kernel and the registry test
// sweeps can run every algorithm on any input.
func init() {
	for name, build := range map[string]func(g *graph.CSR) clique.Kernel{
		"bfs":            func(*graph.CSR) clique.Kernel { return NewBFSKernel(0) },
		"bellman-ford":   func(*graph.CSR) clique.Kernel { return NewBellmanFordKernel(0) },
		"mst":            func(*graph.CSR) clique.Kernel { return NewMSTKernel() },
		"apsp":           func(*graph.CSR) clique.Kernel { return NewAPSPKernel() },
		"widest":         func(*graph.CSR) clique.Kernel { return NewWidestPathKernel() },
		"closure":        func(*graph.CSR) clique.Kernel { return NewTransitiveClosureKernel() },
		"hop-limited":    func(g *graph.CSR) clique.Kernel { return NewHopLimitedKernel(logHops(g.N)) },
		"ksource":        func(g *graph.CSR) clique.Kernel { return NewKSourceKernel(demoSources(g), logHops(g.N)) },
		"widest-ksource": func(g *graph.CSR) clique.Kernel { return NewWidestKSourceKernel(demoSources(g), logHops(g.N)) },
		"approx-sssp":    func(*graph.CSR) clique.Kernel { return NewApproxSSSPKernel(0, hopset.Params{}) },
		"approx-ksource": func(g *graph.CSR) clique.Kernel { return NewApproxKSourceKernel(demoSources(g), hopset.Params{}) },
		// Four sampled sources (clamped to n) and a fixed seed.
		"diameter-est":        func(*graph.CSR) clique.Kernel { return NewDiameterEstimateKernel(4, 1) },
		"diameter-est-approx": func(*graph.CSR) clique.Kernel { return NewApproxDiameterEstimateKernel(4, 1, hopset.Params{}) },
	} {
		clique.Register(name, func(g *graph.CSR) (clique.Kernel, error) { return build(g), nil })
	}
}
