package algo

import (
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// powerState iterates the reflexive semiring power A^e by
// square-and-multiply, one engine product per step, as an explicit pass
// iterator so that session kernels can interleave it with other stages.
// result stays nil until the first set exponent bit so an Identity ⊗ A
// product is never paid; a power-of-two exponent therefore costs at
// most log2(e) squarings and no multiply step.
//
// A squaring that changes nothing ends the squarings: once
// base ⊗ base = base every higher power of base is base, and
// result ⊗ P ⊗ P = result ⊗ P, so whatever exponent is left collapses to
// a single multiply step (or to base itself while result is nil). Each
// squaring with another one still to follow takes that verdict in-engine
// (matmul.Pass.Vote: at most 2 rounds and 2(n-1) words, none when it
// confirms the fixpoint); multiply steps and the last squaring end the
// loop anyway and run bare. How many squarings that saves depends on
// the input: the reflexive power is stable once its hop horizon covers
// the hop-diameter, so graph.Path saves none and a dense random graph
// most of them.
type powerState struct {
	e            int
	base, result *matmul.Matrix
	pass         *matmul.Pass
	passIsSquare bool
	// phase 0: the current exponent bit's multiply step is pending;
	// phase 1: it is done and the squaring step is pending.
	phase int
	// gather is injected into every pass so harvests assemble the full
	// product across transport ranks.
	gather engine.Gatherer
}

// harvest folds the completed in-flight pass (if any) back into the
// square-and-multiply state, gathering the product across transport
// ranks first. Idempotent — harvesting twice is a no-op — so
// checkpointing can force it at a pass boundary before the next Nodes
// call would.
func (ps *powerState) harvest() error {
	if ps.pass == nil {
		return nil
	}
	if err := ps.pass.Gather(); err != nil {
		return err
	}
	m := ps.pass.Sparse()
	if ps.passIsSquare {
		ps.base = m
		if !ps.pass.Changed() {
			ps.e = 1
		}
	} else {
		ps.result = m
	}
	ps.pass = nil
	return nil
}

// next harvests the pass returned by the previous call (if any) and
// returns the next product pass, or nil once A^e is fully computed.
func (ps *powerState) next() (*matmul.Pass, error) {
	if err := ps.harvest(); err != nil {
		return nil, err
	}
	for ps.e > 0 {
		if ps.phase == 0 {
			ps.phase = 1
			if ps.e&1 == 1 {
				if ps.result == nil {
					ps.result = ps.base
				} else {
					return ps.product(ps.result, false)
				}
			}
		}
		if ps.e > 1 {
			ps.phase = 0
			ps.e >>= 1
			return ps.product(ps.base, true)
		}
		ps.e = 0
	}
	return nil, nil
}

// product starts the engine pass left ⊗ base: the squaring step when
// left is base itself (ps.e already holds the exponent left after it),
// the multiply step into result otherwise.
func (ps *powerState) product(left *matmul.Matrix, square bool) (*matmul.Pass, error) {
	p, err := matmul.NewPass(left, ps.base, false)
	if err != nil {
		return nil, err
	}
	p.SetGatherer(ps.gather)
	ps.pass, ps.passIsSquare = p, square
	if square && ps.e > 1 {
		p.Vote()
	}
	return p, nil
}

// matrix returns A^e after next has returned nil. e = 0 yields the
// identity in the base matrix's semiring (every vertex related only to
// itself, with value One).
func (ps *powerState) matrix() *matmul.Matrix {
	if ps.result == nil {
		return matmul.Identity(ps.base.N, ps.base.Sr)
	}
	return ps.result
}

// hint forwards the in-flight pass's round-bound hint.
func (ps *powerState) hint() int {
	if ps.pass == nil {
		return 0
	}
	return ps.pass.MaxRoundsHint()
}

// clampHops clamps a hop bound to n-1 (at least 0): the reflexive power
// stabilizes there (every simple path has at most n-1 edges), so larger
// exponents would only spend engine products on bit-identical results.
func clampHops(h, n int) int { return max(0, min(h, n-1)) }

// squaringExponent is the exponent of the square-until-stable kernels:
// the smallest power of two >= n-1 (at least 1), so the power runs at
// most ceil(log2(n-1)) squarings — fewer when one changes nothing, see
// powerState — and never a multiply step. Overshooting n-1 is harmless
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
	// project converts A^e into the value Result reports.
	project func(*matmul.Matrix) any
}

// powerKernel computes A^e on a warm session, one engine product per
// square-and-multiply step — the single implementation behind every
// matrix-power kernel in this package (apsp, widest, closure,
// hop-limited) and behind stage 1 of the exact k-source pipelines. The
// named kernel types embed it and add only a constructor and a typed
// accessor.
type powerKernel struct {
	spec   powerSpec
	ps     *powerState
	done   bool
	result any
	gather engine.Gatherer
}

// Name identifies the kernel.
func (k *powerKernel) Name() string { return k.spec.name }

// SetGatherer injects the session transport's all-gather so every
// product's harvest assembles the full matrix on every rank (clique
// TransportAware hook).
func (k *powerKernel) SetGatherer(g engine.Gatherer) {
	k.gather = g
	if k.ps != nil {
		k.ps.gather = g
	}
}

// Nodes validates the input on the first call, then returns one product
// pass per call until A^e is computed and projects the result.
func (k *powerKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
	if k.done {
		return nil, nil
	}
	if k.ps == nil {
		if err := k.start(g); err != nil {
			return nil, err
		}
	}
	pass, err := k.ps.next()
	if err != nil {
		return nil, err
	}
	if pass != nil {
		return pass.Nodes(), nil
	}
	k.result = k.spec.project(k.ps.matrix())
	k.done = true
	return nil, nil
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
	k.ps = &powerState{e: e, base: a, gather: k.gather}
	return nil
}

// MaxRoundsHint forwards the in-flight product's round-bound hint.
func (k *powerKernel) MaxRoundsHint() int {
	if k.ps == nil {
		return 0
	}
	return k.ps.hint()
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
