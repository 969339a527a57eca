package algo

import (
	"context"
	"slices"
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

// TestRelaxScheduleChoice: on the benchmark's graph shape, a weighted
// G(n, 0.05) at n = 128 and 256 with √n sources, the hopset
// construction's relaxation over the sparse rounded base prices as
// row-pull, and stage 2's over the dense augmented adjacency as the 2D
// block partition. A RelaxKernel handed that plan on the same session
// returns the pipeline's distances bit for bit, for fewer words than
// one that ships S's blocks again on a fresh session.
func TestRelaxScheduleChoice(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{128, 256} {
		g := graph.RandomGNPWeighted(n, 0.05, 32, int64(n))
		var sources []core.NodeID
		for v := 0; v < n; v += 16 {
			sources = append(sources, core.NodeID(v))
		}
		full := NewApproxKSourceKernel(sources, hopset.Params{Eps: 0.25})
		sess, err := clique.New(g)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if err := sess.Run(ctx, full); err != nil {
			t.Fatal(err)
		}
		if full.Plan() == nil {
			t.Errorf("n = %d: the augmented adjacency prices as row-pull", n)
		}
		hs := full.Hopset()
		base := matmul.NewRelaxation(hs.Base, sources, 3)
		if err := sess.Run(ctx, base); err != nil {
			t.Fatal(err)
		}
		if base.Plan() != nil {
			t.Errorf("n = %d: the rounded base prices as the 2D block partition", n)
		}

		products := RelaxProducts(hs.Beta, n)
		before := sess.Stats().Engine.TotalMsgs
		held := NewRelaxKernel(full.Augmented(), sources, products, full.Plan())
		if err := sess.Run(ctx, held); err != nil {
			t.Fatal(err)
		}
		heldWords := sess.Stats().Engine.TotalMsgs - before
		fresh := NewRelaxKernel(full.Augmented(), sources, products)
		st, err := clique.NewSize(n)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Run(ctx, fresh); err != nil {
			t.Fatal(err)
		}
		for j := range sources {
			if !slices.Equal(held.Dist()[j], full.Dist()[j]) || !slices.Equal(fresh.Dist()[j], full.Dist()[j]) {
				t.Fatalf("n = %d, source %d: a relaxation over the cached matrix differs from the pipeline", n, sources[j])
			}
		}
		if heldWords >= st.Stats().Engine.TotalMsgs {
			t.Errorf("n = %d: the held relaxation billed %d words, one that ships S's blocks %d", n, heldWords, st.Stats().Engine.TotalMsgs)
		}
	}
}
