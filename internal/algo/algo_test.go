package algo

import (
	"reflect"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

func testGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"gnp_sparse":   graph.RandomGNP(80, 0.04, 5),
		"gnp_medium":   graph.RandomGNP(64, 0.1, 6),
		"gnp_dense":    graph.RandomGNP(40, 0.5, 7),
		"gnp_empty":    graph.RandomGNP(20, 0, 8),
		"path":         graph.Path(50),
		"clique":       graph.Clique(24),
		"grid":         graph.Grid(8, 11),
		"disconnected": graph.RandomGNP(60, 0.02, 9),
		"tiny":         graph.Path(2),
		"singleton":    graph.Path(1),
	}
}

func TestBFSMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		for _, src := range []core.NodeID{0, core.NodeID(g.N / 2), core.NodeID(g.N - 1)} {
			k := NewBFSKernel(src)
			stats, err := runOn(g, k)
			if err != nil {
				t.Fatalf("%s src=%d: %v", name, src, err)
			}
			got, want := k.Dist(), BFSRef(g, src)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s src=%d: BFS mismatch\n got %v\nwant %v", name, src, got, want)
			}
			// The flood needs eccentricity+2 rounds (last improvement,
			// its broadcast, the quiet round); sanity-bound it.
			if stats.Rounds > g.N+2 {
				t.Errorf("%s src=%d: BFS took %d rounds for n=%d", name, src, stats.Rounds, g.N)
			}
		}
	}
}

func TestBFSDifferentWorkerCounts(t *testing.T) {
	g := graph.RandomGNP(70, 0.08, 12)
	want := BFSRef(g, 3)
	for _, workers := range []int{1, 2, 4, 16} {
		k := NewBFSKernel(3)
		if _, err := runOn(g, k, clique.WithWorkers(workers)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(k.Dist(), want) {
			t.Errorf("workers=%d: BFS mismatch", workers)
		}
	}
}

func TestBellmanFordMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		for wi, wg := range []*graph.CSR{
			g.WithUniformRandomWeights(101, 10),
			g.WithUniformRandomWeights(202, 1000),
		} {
			for _, src := range []core.NodeID{0, core.NodeID(g.N - 1)} {
				k := NewBellmanFordKernel(src)
				if _, err := runOn(wg, k); err != nil {
					t.Fatalf("%s w%d src=%d: %v", name, wi, src, err)
				}
				got, want := k.Dist(), BellmanFordRef(wg, src)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s w%d src=%d: BellmanFord mismatch\n got %v\nwant %v",
						name, wi, src, got, want)
				}
			}
		}
	}
}

func TestBellmanFordUnitWeightsEqualBFS(t *testing.T) {
	g := graph.RandomGNP(60, 0.07, 33)
	unit := g.WithUniformRandomWeights(1, 1) // maxW=1 => all weights 1
	bf, bfs := NewBellmanFordKernel(0), NewBFSKernel(0)
	runKernel(t, unit, bf)
	runKernel(t, g, bfs)
	if !reflect.DeepEqual(bf.Dist(), bfs.Dist()) {
		t.Error("unit-weight Bellman-Ford disagrees with BFS")
	}
}

func TestAlgoInputValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := runOn(g, NewBFSKernel(99)); err == nil {
		t.Error("BFS accepted out-of-range source")
	}
	wg := g.WithUniformRandomWeights(1, 5)
	if _, err := runOn(wg, NewBellmanFordKernel(-1)); err == nil {
		t.Error("BellmanFord accepted negative source")
	}
	bad := &graph.CSR{N: wg.N, Offsets: wg.Offsets, Targets: wg.Targets,
		Weights: []int64{-1, 1, 1, 1, 1, 1}}
	if _, err := runOn(bad, NewBellmanFordKernel(0)); err == nil {
		t.Error("BellmanFord accepted negative weight")
	}
	if _, err := runOn(bad, NewAPSPKernel()); err == nil {
		t.Error("APSP accepted negative weight")
	}
}
