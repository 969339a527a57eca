package matmul

import (
	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// MulKernel runs one sparse product C = A ⊗ B as a clique session
// kernel: a single engine pass followed by a harvest. The operands are
// carried by the kernel itself, so it runs on graph-free sessions
// (clique.NewSize); the session graph is ignored.
type MulKernel struct {
	a, b    *Matrix
	unpaced bool
	pass    *Pass
	out     *Matrix
	done    bool
	gather  engine.Gatherer
}

// SetGatherer injects the session transport's all-gather so the
// harvest assembles the full product on every rank (clique
// TransportAware hook).
func (k *MulKernel) SetGatherer(g engine.Gatherer) { k.gather = g }

// NewMulKernel prepares the sparse product A ⊗ B as a session kernel.
// Operand validation (dimensions, semirings, wire-format fit) happens
// at the first Nodes call, surfacing through Session.Run.
func NewMulKernel(a, b *Matrix) *MulKernel { return &MulKernel{a: a, b: b} }

// Name identifies the kernel.
func (k *MulKernel) Name() string { return "matmul-mul" }

// Nodes returns the single product pass, then harvests it.
func (k *MulKernel) Nodes(*graph.CSR) ([]engine.Node, error) {
	if k.done {
		return nil, nil
	}
	if k.pass == nil {
		p, err := NewPass(k.a, k.b, k.unpaced)
		if err != nil {
			return nil, err
		}
		p.SetGatherer(k.gather)
		k.pass = p
		return p.Nodes(), nil
	}
	if err := k.pass.Gather(); err != nil {
		return nil, err
	}
	k.out = k.pass.Sparse()
	k.done = true
	return nil, nil
}

// MaxRoundsHint sizes the in-flight pass's round bound from its widest
// packed row.
func (k *MulKernel) MaxRoundsHint() int {
	if k.pass == nil {
		return 0
	}
	return k.pass.MaxRoundsHint()
}

// Result returns the product matrix (*Matrix), nil before completion.
func (k *MulKernel) Result() any {
	if k.out == nil {
		return nil
	}
	return k.out
}

// Product returns the typed product matrix, nil before completion.
func (k *MulKernel) Product() *Matrix { return k.out }

// MulDenseKernel runs one sparse-dense product C = A ⊗ B (B and C
// n x k dense) as a clique session kernel; like MulKernel it carries
// its operands and ignores the session graph.
type MulDenseKernel struct {
	a      *Matrix
	b      *Dense
	pass   *Pass
	out    *Dense
	done   bool
	gather engine.Gatherer
}

// SetGatherer injects the session transport's all-gather so the
// harvest assembles the full product on every rank (clique
// TransportAware hook).
func (k *MulDenseKernel) SetGatherer(g engine.Gatherer) { k.gather = g }

// NewMulDenseKernel prepares the sparse-dense product A ⊗ B as a
// session kernel; validation happens at the first Nodes call.
func NewMulDenseKernel(a *Matrix, b *Dense) *MulDenseKernel {
	return &MulDenseKernel{a: a, b: b}
}

// Name identifies the kernel.
func (k *MulDenseKernel) Name() string { return "matmul-dense" }

// Nodes returns the single product pass, then harvests it.
func (k *MulDenseKernel) Nodes(*graph.CSR) ([]engine.Node, error) {
	if k.done {
		return nil, nil
	}
	if k.pass == nil {
		p, err := NewDensePass(k.a, k.b, false)
		if err != nil {
			return nil, err
		}
		p.SetGatherer(k.gather)
		k.pass = p
		return p.Nodes(), nil
	}
	if err := k.pass.Gather(); err != nil {
		return nil, err
	}
	k.out = k.pass.Dense()
	k.done = true
	return nil, nil
}

// MaxRoundsHint sizes the in-flight pass's round bound from its widest
// packed row — essential for dense operands wider than the engine's
// n-scaled default.
func (k *MulDenseKernel) MaxRoundsHint() int {
	if k.pass == nil {
		return 0
	}
	return k.pass.MaxRoundsHint()
}

// Result returns the product (*Dense), nil before completion.
func (k *MulDenseKernel) Result() any {
	if k.out == nil {
		return nil
	}
	return k.out
}

// Product returns the typed dense product, nil before completion.
func (k *MulDenseKernel) Product() *Dense { return k.out }

// init registers the demonstration matmul kernel: squaring the
// reflexive (min,+) adjacency matrix of the session graph — one
// distance-product step, the atom every shortest-path pipeline here is
// built from. Unweighted graphs are treated as unit-weighted.
func init() {
	clique.Register("matmul-square", func(g *graph.CSR) (clique.Kernel, error) {
		a, err := FromGraph(g.WithUnitWeights(), core.MinPlus(), true)
		if err != nil {
			return nil, err
		}
		return NewMulKernel(a, a), nil
	})
}
