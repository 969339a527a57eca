package hopset

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// ConstructKernel computes a (β, ε)-hopset distributedly as a clique
// session pipeline stage: after rounding the weights and sampling the
// hub set locally (both deterministic given Params), it drives a
// matmul.Relaxation of the hub indicator columns over the rounded
// adjacency — at most β sparse-dense (min,+) products, each advancing
// every hub's distance column by one hop: the first local (each node
// reads the hubs' entries of its own row), one engine pass per hop
// after it — and
// harvests the shortcut star from the final columns. A product that
// changes no column ends the loop early: the columns are then the
// unlimited-hop distances, which every later product would return
// again, so the hopset is bit-identical to ConstructRef's (which always
// runs all β). The saving is distance-sensitive by design: the columns
// settle after about as many products as the farthest hub-to-vertex
// shortest path has hops — nothing is skipped on graph.Path, most of β
// on a dense random graph. Each product's cost is distance-sensitive
// too: the rounded adjacency is reflexive, so every product after the
// first streams only the column entries the product before changed
// (see matmul.Relaxation) — the hubs a node just came one hop closer
// to, not every hub it has reached.
// It is the stage the approximate shortest-path kernels in
// internal/algo embed as their stage 1; run standalone (registry name
// "hopset") its Result is the *Hopset.
type ConstructKernel struct {
	params Params

	stage int // 0: unstarted, 1: products, 2: done
	hubs  []core.NodeID
	rx    *matmul.Relaxation
	hs    *Hopset
}

// NewConstructKernel returns a hopset construction kernel with the
// given parameters (zero-value fields select the defaults; see
// Params). Validation happens at the first Next call, surfacing
// through Session.Run.
func NewConstructKernel(p Params) *ConstructKernel {
	return &ConstructKernel{params: p}
}

// Name identifies the kernel.
func (k *ConstructKernel) Name() string { return "hopset" }

// Next starts the construction on the first call, which also runs the
// local first product, then returns one limited-hop product pass per
// call until β products have run or one changed nothing, and finally
// harvests the shortcut matrix.
func (k *ConstructKernel) Next(g *graph.CSR) (clique.Pass, error) {
	if k.stage == 0 {
		if err := k.start(g); err != nil {
			return clique.Pass{}, err
		}
	}
	if k.stage == 1 {
		pass, err := k.rx.Next(g)
		if err != nil || pass.Nodes != nil {
			return pass, err
		}
		if err := k.finish(); err != nil {
			return clique.Pass{}, err
		}
	}
	return clique.Pass{}, nil
}

// finish assembles the hopset from the final hub distance columns. The
// hub list indexes the star, so one restored from a checkpoint must be
// what sampleHubs returns: strictly ascending vertices, one per column.
func (k *ConstructKernel) finish() error {
	base, d := k.rx.Over(), k.rx.Result().(*matmul.Dense)
	for j, s := range k.hubs {
		if s < 0 || int(s) >= base.N || j > 0 && k.hubs[j-1] >= s {
			return fmt.Errorf("hopset: hub list is not strictly ascending in [0, %d)", base.N)
		}
	}
	if d.K != len(k.hubs) {
		return fmt.Errorf("hopset: %d hub distance columns for %d hubs", d.K, len(k.hubs))
	}
	k.hs = assemble(k.params, k.hubs, base, d)
	k.stage = 2
	return nil
}

// start validates the inputs and prepares the product loop.
func (k *ConstructKernel) start(g *graph.CSR) error {
	if g == nil {
		return fmt.Errorf("hopset: %s kernel requires a graph-bound session (clique.New, not NewSize)", k.Name())
	}
	p, err := k.params.withDefaults(g.N)
	if err != nil {
		return err
	}
	k.params = p
	base, err := roundedBase(g, p.Eps)
	if err != nil {
		return err
	}
	k.hubs = sampleHubs(g.N, p.HubRate, p.Seed)
	products := p.Beta
	if len(k.hubs) == 0 {
		// No hubs, no products: the hopset is (validly) empty.
		products = 0
	}
	k.rx = matmul.NewRelaxation(base, k.hubs, products)
	k.stage = 1
	return nil
}

// Result returns the constructed hopset (*Hopset), nil before
// completion.
func (k *ConstructKernel) Result() any {
	if k.hs == nil {
		return nil
	}
	return k.hs
}

// Hopset returns the typed result, nil before completion.
func (k *ConstructKernel) Hopset() *Hopset { return k.hs }

// init registers the construction kernel so ccbench -kernel, the
// degenerate-graph sweep, and the cancellation tests pick it up.
func init() {
	clique.Register("hopset", func(*graph.CSR) (clique.Kernel, error) {
		return NewConstructKernel(Params{}), nil
	})
}
