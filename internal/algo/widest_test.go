package algo

import (
	"reflect"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// widestTestGraphs is the seeded instance sweep the widest-path and
// closure property tests share: connected and disconnected, dense and
// sparse, plus path/degenerate shapes.
func widestTestGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"gnp_sparse":  graph.RandomGNPWeighted(17, 0.15, 9, 7),
		"gnp_dense":   graph.RandomGNPWeighted(13, 0.5, 25, 11),
		"gnp_uniform": graph.RandomGNP(15, 0.3, 3).WithUniformRandomWeights(5, 16),
		"path":        graph.Path(9).WithUniformRandomWeights(2, 7),
		"single":      graph.Path(1),
		"edgeless":    graph.RandomGNP(6, 0, 1),
	}
}

// TestWidestPathMatchesRef checks the all-pairs (max,min) squaring
// kernel bit for bit against the sequential bottleneck Dijkstra, per
// source row.
func TestWidestPathMatchesRef(t *testing.T) {
	for name, g := range widestTestGraphs() {
		g := g
		t.Run(name, func(t *testing.T) {
			k := NewWidestPathKernel()
			runKernel(t, g, k)
			width := k.Width()
			if width == nil {
				t.Fatal("no result after completion")
			}
			for src := 0; src < g.N; src++ {
				want := WidestRef(g, core.NodeID(src))
				if !reflect.DeepEqual(width[src], want) {
					t.Fatalf("row %d: kernel %v, oracle %v", src, width[src], want)
				}
			}
		})
	}
}

// TestWidestKSourceMatchesRef checks the two-stage (max,min) pipeline
// bit for bit against the oracle for several hop horizons.
func TestWidestKSourceMatchesRef(t *testing.T) {
	for name, g := range widestTestGraphs() {
		g := g
		t.Run(name, func(t *testing.T) {
			sources := []core.NodeID{0}
			if g.N > 2 {
				sources = append(sources, core.NodeID(g.N/2), core.NodeID(g.N-1))
			}
			for _, h := range []int{1, 3, core.Log2Ceil(g.N) + 1} {
				k := NewWidestKSourceKernel(sources, h)
				runKernel(t, g, k)
				width := k.Width()
				if width == nil {
					t.Fatalf("h=%d: no result after completion", h)
				}
				for j, src := range sources {
					want := WidestRef(g, src)
					if !reflect.DeepEqual(width[j], want) {
						t.Fatalf("h=%d source %d: kernel %v, oracle %v", h, src, width[j], want)
					}
				}
			}
		})
	}
}

// TestWidestSelfAndUnreachableConventions pins the result conventions:
// InfWidth on the diagonal, 0 for unreachable pairs.
func TestWidestSelfAndUnreachableConventions(t *testing.T) {
	g := graph.RandomGNP(6, 0, 1) // edgeless: nothing reaches anything
	k := NewWidestPathKernel()
	runKernel(t, g, k)
	for u, row := range k.Width() {
		for v, w := range row {
			switch {
			case u == v && w != core.InfWidth:
				t.Fatalf("width[%d][%d] = %d, want InfWidth", u, v, w)
			case u != v && w != 0:
				t.Fatalf("width[%d][%d] = %d, want 0", u, v, w)
			}
		}
	}
}

// TestWidestRejectsNonPositiveWeights checks the (max,min) adjacency
// guard: width 0 would collide with the semiring's absent-entry
// sentinel.
func TestWidestRejectsNonPositiveWeights(t *testing.T) {
	g := graph.Path(3).WithUnitWeights()
	g.Weights[0] = 0
	if _, err := runOn(g, NewWidestPathKernel()); err == nil {
		t.Fatal("zero-width edge accepted")
	}
	g.Weights[0] = core.InfWidth
	if _, err := runOn(g, NewWidestKSourceKernel([]core.NodeID{0}, 2)); err == nil {
		t.Fatal("InfWidth edge accepted")
	}
}
