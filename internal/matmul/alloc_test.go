package matmul_test

import (
	"context"
	"runtime"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// TestDensePassAllocationBound: building and running one stage-2
// relaxation pass (hopset-augmented A, 16 source columns) on a warm
// engine allocates a few objects per node — not one per entry of A, and
// no per-destination queues — and under 1 MB in all.
func TestDensePassAllocationBound(t *testing.T) {
	const n, k = 256, 16
	g := graph.RandomGNPWeighted(n, 0.05, 32, 3)
	hs, err := hopset.ConstructRef(g, hopset.Params{Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	a, err := hopset.Augment(hs.Base, hs)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() < 16*n {
		t.Fatalf("augmented operand has %d entries; the bound below needs nnz(A) >> n", a.NNZ())
	}
	b := matmul.NewDense(n, k, core.MinPlus())
	for i := range b.Vals {
		b.Vals[i] = int64(1 + i%97)
	}
	e, err := engine.New(n, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pass := func() {
		p, err := matmul.NewDensePass(a, b, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunBounded(context.Background(), p.Nodes(), p.MaxRoundsHint()); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, pass); allocs > 2*n {
		t.Errorf("one dense pass allocates %.0f objects, want <= 2n = %d (nnz(A) = %d)", allocs, 2*n, a.NNZ())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 1<<20 {
		t.Errorf("one dense pass allocates %d bytes, want < 1 MiB", bytes)
	}
}
