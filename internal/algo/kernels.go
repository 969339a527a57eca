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
// Bellman-Ford) and the registry table. Every algorithm in the package
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

// BFSKernel computes single-source hop distances by a parallel
// breadth-first flood — one engine pass. Result/Dist hold the distance
// vector (Unreached for unreachable vertices) after completion.
type BFSKernel struct {
	src    core.NodeID
	state  []bfsNode
	dist   []int64
	done   bool
	gather engine.Gatherer
}

// SetGatherer injects the session transport's all-gather so the
// harvest assembles the full distance vector on every rank (clique
// TransportAware hook).
func (k *BFSKernel) SetGatherer(g engine.Gatherer) { k.gather = g }

// NewBFSKernel returns a BFS kernel flooding from src.
func NewBFSKernel(src core.NodeID) *BFSKernel { return &BFSKernel{src: src} }

// Name identifies the kernel.
func (k *BFSKernel) Name() string { return "bfs" }

// Nodes builds the flood node set on the first call and harvests the
// distance vector on the second.
func (k *BFSKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
	if k.done {
		return nil, nil
	}
	if k.state != nil {
		k.dist = make([]int64, len(k.state))
		for i := range k.state {
			k.dist[i] = k.state[i].dist
		}
		if k.gather != nil && len(k.dist) > 0 {
			if err := k.gather.AllGatherRows(k.dist, 1); err != nil {
				return nil, err
			}
		}
		k.done = true
		return nil, nil
	}
	if err := checkSources(k.Name(), g, k.src); err != nil {
		return nil, err
	}
	nodes := make([]engine.Node, g.N)
	k.state = make([]bfsNode, g.N)
	for i := range k.state {
		k.state[i] = bfsNode{g: g, src: k.src, dist: Unreached}
		nodes[i] = &k.state[i]
	}
	return nodes, nil
}

// Result returns the distance vector ([]int64), nil before completion.
func (k *BFSKernel) Result() any {
	if !k.done {
		return nil
	}
	return k.dist
}

// Dist returns the typed distance vector, nil before completion.
func (k *BFSKernel) Dist() []int64 { return k.dist }

// BellmanFordKernel computes single-source shortest-path distances by
// iterated parallel relaxation — one engine pass. Unweighted session
// graphs are treated as unit-weighted, so the kernel runs on any input;
// negative weights are rejected.
type BellmanFordKernel struct {
	src    core.NodeID
	state  []bfordNode
	dist   []int64
	done   bool
	gather engine.Gatherer
}

// SetGatherer injects the session transport's all-gather so the
// harvest assembles the full distance vector on every rank (clique
// TransportAware hook).
func (k *BellmanFordKernel) SetGatherer(g engine.Gatherer) { k.gather = g }

// NewBellmanFordKernel returns a Bellman-Ford kernel relaxing from src.
func NewBellmanFordKernel(src core.NodeID) *BellmanFordKernel {
	return &BellmanFordKernel{src: src}
}

// Name identifies the kernel.
func (k *BellmanFordKernel) Name() string { return "bellman-ford" }

// Nodes builds the relaxation node set on the first call and harvests
// the distance vector on the second.
func (k *BellmanFordKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
	if k.done {
		return nil, nil
	}
	if k.state != nil {
		k.dist = make([]int64, len(k.state))
		for i := range k.state {
			k.dist[i] = k.state[i].dist
		}
		if k.gather != nil && len(k.dist) > 0 {
			if err := k.gather.AllGatherRows(k.dist, 1); err != nil {
				return nil, err
			}
		}
		k.done = true
		return nil, nil
	}
	if err := checkSources(k.Name(), g, k.src); err != nil {
		return nil, err
	}
	gw := g.WithUnitWeights()
	if err := checkNonNegative(k.Name(), gw); err != nil {
		return nil, err
	}
	nodes := make([]engine.Node, gw.N)
	k.state = make([]bfordNode, gw.N)
	for i := range k.state {
		k.state[i] = bfordNode{g: gw, src: k.src, dist: Unreached}
		nodes[i] = &k.state[i]
	}
	return nodes, nil
}

// Result returns the distance vector ([]int64), nil before completion.
func (k *BellmanFordKernel) Result() any {
	if !k.done {
		return nil
	}
	return k.dist
}

// Dist returns the typed distance vector, nil before completion.
func (k *BellmanFordKernel) Dist() []int64 { return k.dist }

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
