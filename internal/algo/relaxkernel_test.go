package algo

import (
	"context"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// TestRelaxKernelMatchesApproxPipeline proves the cache fast path: a
// RelaxKernel over the hopset-augmented matrix, allowed RelaxProducts
// products, returns bit-identical distances to the full two-stage
// ApproxKSourceKernel — while running only the relaxation passes: at
// most RelaxProducts of them, and exactly as many as the pipeline's own
// stage 2 ran on the same matrix and sources.
func TestRelaxKernelMatchesApproxPipeline(t *testing.T) {
	g := graph.RandomGNPWeighted(40, 0.15, 16, 3)
	sources := []core.NodeID{0, 7, 19}
	p := hopset.Params{Eps: 0.25}

	// Full pipeline (stage 1 + stage 2).
	full := NewApproxKSourceKernel(sources, p)
	s1, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if err := s1.Run(context.Background(), full); err != nil {
		t.Fatalf("approx pipeline: %v", err)
	}
	fullPasses := s1.Stats().Runs

	// Cache fast path: augment once, relax only.
	hs := full.Hopset()
	aug, err := hopset.Augment(hs.Base, hs)
	if err != nil {
		t.Fatal(err)
	}
	products := RelaxProducts(hs.Beta, g.N)
	relax := NewRelaxKernel(aug, sources, products)
	s2, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Run(context.Background(), relax); err != nil {
		t.Fatalf("relax kernel: %v", err)
	}

	fd, rd := full.Dist(), relax.Dist()
	for j := range sources {
		for v := 0; v < g.N; v++ {
			if fd[j][v] != rd[j][v] {
				t.Fatalf("source %d vertex %d: relax %d != pipeline %d",
					sources[j], v, rd[j][v], fd[j][v])
			}
		}
	}
	// Zero stage-1 passes: the relax run spends at most `products`
	// engine passes, and together with a standalone construction they
	// are exactly the full pipeline's.
	relaxPasses := s2.Stats().Runs
	if relaxPasses < 1 || relaxPasses > products {
		t.Fatalf("relax run used %d passes, want 1..%d (zero stage-1)", relaxPasses, products)
	}
	s3, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if err := s3.Run(context.Background(), hopset.NewConstructKernel(p)); err != nil {
		t.Fatalf("standalone construction: %v", err)
	}
	if stage1 := s3.Stats().Runs; fullPasses != stage1+relaxPasses {
		t.Fatalf("full pipeline used %d passes, want %d construction + %d relaxation", fullPasses, stage1, relaxPasses)
	}
}

func TestRelaxKernelValidation(t *testing.T) {
	m, err := matmul.FromGraph(graph.Path(4).WithUnitWeights(), core.MinPlus(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		k    *RelaxKernel
		want string
	}{
		{"nil-matrix", NewRelaxKernel(nil, nil, 1), "requires a matrix"},
		{"negative-products", NewRelaxKernel(m, nil, -1), "must be >= 0"},
		{"bad-source", NewRelaxKernel(m, []core.NodeID{9}, 1), "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := clique.NewSize(4)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			err = s.Run(context.Background(), tc.k)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRelaxKernelZeroProducts covers the n=1 degenerate: no products,
// distances straight from the indicator columns.
func TestRelaxKernelZeroProducts(t *testing.T) {
	m, err := matmul.FromGraph(graph.Path(1).WithUnitWeights(), core.MinPlus(), true)
	if err != nil {
		t.Fatal(err)
	}
	k := NewRelaxKernel(m, []core.NodeID{0}, 0)
	s, err := clique.NewSize(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	if d := k.Dist(); len(d) != 1 || d[0][0] != 0 {
		t.Fatalf("Dist() = %v, want [[0]]", d)
	}
}
