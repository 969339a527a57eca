package algo

import (
	"reflect"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// mstTestGraphs is the seeded instance sweep for the Borůvka kernel:
// duplicate weights (tie-breaking matters), disconnected graphs
// (forests, not trees), degenerate shapes.
func mstTestGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"gnp_sparse":    graph.RandomGNPWeighted(19, 0.15, 9, 3),
		"gnp_dense":     graph.RandomGNPWeighted(14, 0.5, 4, 5), // heavy weight ties
		"gnp_unit":      graph.RandomGNP(16, 0.2, 9),            // all-ties: pure ID tie-break
		"path":          graph.Path(11).WithUniformRandomWeights(6, 31),
		"single":        graph.Path(1),
		"two":           graph.Path(2).WithUniformRandomWeights(3, 4),
		"edgeless":      graph.RandomGNP(7, 0, 1),
		"two_component": twoComponents(),
	}
}

// TestMSTMatchesKruskal checks the distributed Borůvka forest bit for
// bit — weight and edge set — against the sequential Kruskal oracle
// with the same (w, lo, hi) tie-break order.
func TestMSTMatchesKruskal(t *testing.T) {
	for name, g := range mstTestGraphs() {
		g := g
		t.Run(name, func(t *testing.T) {
			k := NewMSTKernel()
			runKernel(t, g, k)
			got, ok := k.Result().(MSTResult)
			if !ok {
				t.Fatalf("result is %T, want MSTResult", k.Result())
			}
			want := MSTRef(g)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kernel %+v, oracle %+v", got, want)
			}
		})
	}
}

// TestMSTForestProperties checks structural invariants independently of
// the oracle: the chosen edges are graph edges with their true weights,
// acyclic, and span every connected component (edge count = n - number
// of components).
func TestMSTForestProperties(t *testing.T) {
	for name, g := range mstTestGraphs() {
		g := g
		t.Run(name, func(t *testing.T) {
			k := NewMSTKernel()
			runKernel(t, g, k)
			res := k.Forest()
			gw := g.WithUnitWeights()

			// Count the graph's connected components via the BFS oracle.
			comps := 0
			seen := make([]bool, gw.N)
			for v := 0; v < gw.N; v++ {
				if seen[v] {
					continue
				}
				comps++
				for u, r := range ClosureRef(gw, core.NodeID(v)) {
					if r {
						seen[u] = true
					}
				}
			}
			if got, want := len(res.Edges), gw.N-comps; got != want {
				t.Fatalf("forest has %d edges, want n - #components = %d", got, want)
			}

			parent := make([]int, gw.N)
			for v := range parent {
				parent[v] = v
			}
			find := func(v int) int {
				for parent[v] != v {
					parent[v] = parent[parent[v]]
					v = parent[v]
				}
				return v
			}
			var total int64
			for _, e := range res.Edges {
				if e.U >= e.V {
					t.Fatalf("edge %+v not in canonical order", e)
				}
				found := false
				nbrs := gw.Neighbors(e.U)
				ws := gw.NeighborWeights(e.U)
				for i, u := range nbrs {
					if u == e.V && ws[i] == e.W {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("edge %+v is not a graph edge", e)
				}
				ru, rv := find(int(e.U)), find(int(e.V))
				if ru == rv {
					t.Fatalf("edge %+v closes a cycle", e)
				}
				parent[ru] = rv
				total += e.W
			}
			if total != res.Weight {
				t.Fatalf("edge weights sum to %d, result claims %d", total, res.Weight)
			}
		})
	}
}

// TestMSTRunsMultiplePasses pins the pass protocol: on any graph with
// an edge, the terminating choice-free phase makes the kernel run at
// least two passes — the property the crash/resume sweep relies on.
func TestMSTRunsMultiplePasses(t *testing.T) {
	g := graph.Path(2).WithUnitWeights()
	k := NewMSTKernel()
	passes := 0
	for {
		pass, err := k.Next(g)
		if err != nil {
			t.Fatal(err)
		}
		if pass.Nodes == nil {
			break
		}
		passes++
		// Drive the pass on a throwaway engine.
		if _, err := engine.RunOnce(pass.Nodes, engine.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if passes < 2 {
		t.Fatalf("kernel completed in %d passes, want >= 2", passes)
	}
}
