package algo

import (
	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// clampHops clamps a hop bound to n-1 (at least 0): the reflexive power
// stabilizes there (every simple path has at most n-1 edges), so larger
// exponents would only spend engine products on bit-identical results.
func clampHops(h, n int) int { return max(0, min(h, n-1)) }

// squaringExponent is the exponent of the square-until-stable kernels:
// the smallest power of two >= n-1 (at least 1), so the power runs at
// most ceil(log2(n-1)) squarings — fewer when one changes nothing, see
// matmul.Power — and never a multiply step. Overshooting n-1 is harmless
// — the reflexive power has stabilized.
func squaringExponent(n int) (int, error) {
	e := 1
	for e < n-1 {
		e *= 2
	}
	return e, nil
}

// powerSpec is what distinguishes one matrix-power kernel from another:
// the semiring adjacency it powers, the exponent, and how the final
// matrix becomes the kernel's result.
type powerSpec struct {
	name string
	// adjacency validates the session graph and builds the reflexive
	// adjacency matrix A in the kernel's semiring.
	adjacency func(*graph.CSR) (*matmul.Matrix, error)
	// exponent validates the kernel's parameters and returns e for an
	// n-vertex graph.
	exponent func(n int) (int, error)
	// project converts the finished power into the value Result reports:
	// a projection to rows reads its slab (Power.Dense), stage 1 of the
	// exact pipelines its CSR (Power.Result).
	project func(*matmul.Power) any
}

// powerKernel computes A^e on a warm session by driving a matmul.Power
// — the single implementation behind every matrix-power kernel in this
// package (apsp, widest, closure, hop-limited) and behind stage 1 of the
// exact k-source pipelines. The named kernel types embed it and add
// only a constructor and a typed accessor.
type powerKernel struct {
	spec   powerSpec
	pw     *matmul.Power
	done   bool
	result any
}

// Name identifies the kernel.
func (k *powerKernel) Name() string { return k.spec.name }

// Next validates the input on the first call, then returns one product
// pass per call until A^e is computed and projects the result.
func (k *powerKernel) Next(g *graph.CSR) (clique.Pass, error) {
	if k.done {
		return clique.Pass{}, nil
	}
	if k.pw == nil {
		if err := k.start(g); err != nil {
			return clique.Pass{}, err
		}
	}
	pass, err := k.pw.Next(g)
	if err != nil || pass.Nodes != nil {
		return pass, err
	}
	k.result = k.spec.project(k.pw)
	k.done = true
	return clique.Pass{}, nil
}

// start validates the session graph and the spec's parameters and
// prepares the power iteration.
func (k *powerKernel) start(g *graph.CSR) error {
	if g == nil {
		return errNoGraph(k.Name())
	}
	e, err := k.spec.exponent(g.N)
	if err != nil {
		return err
	}
	a, err := k.spec.adjacency(g)
	if err != nil {
		return err
	}
	k.pw = matmul.NewPower(a, e)
	return nil
}

// Result returns the projected power (the spec's result type), nil
// before completion.
func (k *powerKernel) Result() any { return k.result }

// resultAs is the typed-accessor bridge of the named kernel shells: r
// as a T, or T's zero value when the kernel has not completed.
func resultAs[T any](r any) T {
	v, _ := r.(T)
	return v
}
