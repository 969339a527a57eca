package algo

import (
	"context"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// runOn runs k to completion on a single-use session over g and returns
// the session's cumulative engine stats.
func runOn(g *graph.CSR, k clique.Kernel, opts ...clique.Option) (engine.Stats, error) {
	s, err := clique.New(g, opts...)
	if err != nil {
		return engine.Stats{}, err
	}
	defer s.Close()
	err = s.Run(context.Background(), k)
	return s.Stats().Engine, err
}

// runKernel is runOn for runs that must succeed.
func runKernel(t *testing.T, g *graph.CSR, k clique.Kernel) engine.Stats {
	t.Helper()
	stats, err := runOn(g, k)
	if err != nil {
		t.Fatalf("running %s: %v", k.Name(), err)
	}
	return stats
}
