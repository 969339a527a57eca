package clique

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// Kernel is one distributed computation runnable on a Session — the
// composable unit of the Dory-Parter pipeline. A kernel is a pass
// factory plus result sink driven by Session.Run:
//
//  1. Run calls Next(g) with the session graph. A Pass with non-nil
//     Nodes is executed as one engine pass (all nodes from round 0 to
//     quiescence; an empty non-nil set is a vacuous pass on a
//     zero-node session, not completion), after which the session
//     all-gathers the pass's Rows across the transport's ranks.
//  2. Run calls Next again; the kernel harvests its result from the
//     completed pass's Rows and either returns the next pass
//     (pipeline stages, repeated matrix squarings, ...) or reports
//     completion with nil Nodes.
//  3. After completion, Result returns the kernel's output.
//
// Single-pass algorithms return one pass and then harvest; pipeline
// kernels interleave as many passes as they need — all on the same
// warm engine, under one cumulative Stats account. Kernels are
// single-use: run a fresh value for a fresh computation. Implementations
// that prefer typed results should also expose a typed accessor (see
// ResultAs for the generic bridge).
type Kernel interface {
	// Name identifies the kernel in errors, the registry, and reports.
	Name() string
	// Next returns the next engine pass, or a Pass with nil Nodes when
	// the kernel has completed (slices from make are non-nil even at
	// length zero, so built passes and completion never collide). g is
	// the session graph (nil for NewSize sessions; kernels that need
	// it must return a descriptive error).
	Next(g *graph.CSR) (Pass, error)
	// Result returns the kernel's output after completion, nil before.
	Result() any
}

// Pass is one engine pass a kernel hands the session: what to run, how
// long it may take, and where its result lands.
type Pass struct {
	// Nodes is the pass's node set, one per clique node; nil reports
	// that the kernel has completed.
	Nodes []engine.Node
	// MaxRounds bounds the pass when its legitimate length may exceed
	// the engine's 4n+64 default — for example streaming one very wide
	// matrix row under a one-word link cap. 0 keeps the default, and a
	// session built WithMaxRounds ignores it.
	MaxRounds int
	// Rows is the row-major n x RowLen slab the pass's nodes write
	// their results into, row v by node v. On a multi-process transport
	// each rank executes only its own node shard, so after the pass the
	// session all-gathers Rows and every rank holds every row before
	// the next Next call. Nil for a pass whose results travel in
	// messages alone.
	Rows []int64
	// RowLen is the width of each row of Rows.
	RowLen int
}

// ResultAs returns k's Result as a T, with a descriptive error when the
// kernel is incomplete or produced a different type — the typed-access
// bridge for registry-constructed kernels whose concrete type is not in
// hand.
func ResultAs[T any](k Kernel) (T, error) {
	var zero T
	r := k.Result()
	if r == nil {
		return zero, fmt.Errorf("clique: kernel %q has no result (did its Run complete?)", k.Name())
	}
	v, ok := r.(T)
	if !ok {
		return zero, fmt.Errorf("clique: kernel %q result is %T, not %T", k.Name(), r, zero)
	}
	return v, nil
}
