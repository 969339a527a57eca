package algo

import (
	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// transpose turns the final n x k columns into per-source rows of raw
// semiring values; the spec's projection translates sentinels.
func transpose(d *matmul.Dense) [][]int64 {
	rows := make([][]int64, d.K)
	for j := range rows {
		rows[j] = make([]int64, d.N)
	}
	for v := 0; v < d.N; v++ {
		for j, x := range d.Row(core.NodeID(v)) {
			rows[j][v] = x
		}
	}
	return rows
}

// pipelineSpec is what distinguishes one two-stage kernel from another:
// where the sources come from, which stage 1 produces the relaxation
// matrix S, how many products stage 2 runs over it, and how the final
// per-source rows become the kernel's result.
type pipelineSpec struct {
	name string
	// sources picks the source vertices: a fixed list, or a seeded
	// sample of the session graph. g is nil on a NewSize session, which
	// only a spec without a stage 1 ever sees.
	sources func(g *graph.CSR) ([]core.NodeID, error)
	// stage1 returns a fresh, unstarted stage-1 kernel. It is nil for a
	// caller-supplied matrix, which costs zero stage-1 passes and needs
	// no session graph.
	stage1 func() clique.Checkpointable
	// relaxOver validates and converts stage 1's Result (nil without a
	// stage 1) into S and the most stage-2 products to run over it:
	// ceil((n-1)/h) for S = A^h, RelaxProducts(β, n) for a
	// hopset-augmented adjacency.
	relaxOver func(stage1 any) (s *matmul.Matrix, products int, err error)
	// project converts the relaxed per-source rows of raw semiring
	// values (which it may overwrite) into the value Result reports.
	project func(sources []core.NodeID, rows [][]int64) any
}

// pipelineKernel is the paper's composition skeleton on one warm
// session — the single implementation behind every two-stage kernel in
// this package:
//
//	stage 1 builds the relaxation matrix S: the hop-limited power A^h
//	  (a powerKernel, one sparse product per square-and-multiply step),
//	  or the hopset-augmented adjacency (hopset.ConstructKernel's at
//	  most β limited-hop products, then hopset.Augment — the swap the
//	  paper's pipeline is built around: where the power pays for the
//	  full matrix, the hopset only moves hub columns), or nothing at
//	  all for a caller-supplied S.
//	stage 2 relaxes per source: starting from the k source indicator
//	  columns B_0 (One at the source, Zero elsewhere), iterate the
//	  dense product B_{t+1} = S ⊗ B_t. Each product advances the hop
//	  horizon by h, so ceil((n-1)/h) products reach exactness over A^h;
//	  the hopset guarantee makes min(β, n-1) products (1+ε)-accurate.
//	  Those counts are upper bounds: a matmul.Relaxation stops at the
//	  first product that changes nothing.
//
// Both stages bill their engine passes to the same session Stats, which
// is exactly the cross-stage round accounting the paper's pipeline
// analysis performs. The named kernel types embed it and add only a
// constructor and a typed accessor.
type pipelineKernel struct {
	spec pipelineSpec

	stage   int // 0: unstarted, 1: stage 1, 2: relaxing, 3: done
	sources []core.NodeID
	s1      clique.Checkpointable
	hs      *hopset.Hopset
	rx      *matmul.Relaxation
	result  any
}

// Name identifies the kernel.
func (k *pipelineKernel) Name() string { return k.spec.name }

// Next advances the pipeline: it drives stage 1 pass by pass, hands
// its matrix to the relaxation stage, and returns one relaxation
// product per call until the columns are final.
func (k *pipelineKernel) Next(g *graph.CSR) (clique.Pass, error) {
	if k.stage == 0 {
		if err := k.start(g); err != nil {
			return clique.Pass{}, err
		}
	}
	if k.stage == 1 {
		pass, err := k.s1.Next(g)
		if err != nil || pass.Nodes != nil {
			return pass, err
		}
		if err := k.relax(k.s1.Result()); err != nil {
			return clique.Pass{}, err
		}
	}
	if k.stage == 2 {
		pass, err := k.rx.Next(g)
		if err != nil || pass.Nodes != nil {
			return pass, err
		}
		k.finish()
	}
	return clique.Pass{}, nil
}

// start picks and validates the sources and prepares stage 1 — or,
// without one, goes straight to the relaxation stage.
func (k *pipelineKernel) start(g *graph.CSR) error {
	if k.spec.stage1 != nil && g == nil {
		return errNoGraph(k.Name())
	}
	sources, err := k.spec.sources(g)
	if err != nil {
		return err
	}
	k.sources = sources
	if k.spec.stage1 == nil {
		return k.relax(nil)
	}
	if err := checkSourceRange(k.Name(), g.N, k.sources); err != nil {
		return err
	}
	k.s1 = k.spec.stage1()
	k.stage = 1
	return nil
}

// relax ends stage 1: it converts the stage's result into the matrix S
// and hands the source indicator columns to the relaxation stage.
func (k *pipelineKernel) relax(stage1 any) error {
	s, products, err := k.spec.relaxOver(stage1)
	if err != nil {
		return err
	}
	if err := checkSourceRange(k.Name(), s.N, k.sources); err != nil {
		return err
	}
	k.hs, _ = stage1.(*hopset.Hopset)
	k.rx = matmul.NewRelaxation(s, matmul.Indicator(s.N, k.sources, s.Sr), products)
	k.s1 = nil
	k.stage = 2
	return nil
}

// finish projects the final columns into the kernel's result.
func (k *pipelineKernel) finish() {
	k.result = k.spec.project(k.sources, transpose(k.rx.Result().(*matmul.Dense)))
	k.stage = 3
}

// Result returns the projected per-source rows (the spec's result
// type), nil before completion.
func (k *pipelineKernel) Result() any { return k.result }
