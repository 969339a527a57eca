package clique_test

import (
	"context"
	"fmt"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// Example composes two kernels on one warm session: a BFS flood and the
// two-stage k-source pipeline (hop-limited matrix powering, then
// per-source relaxation) run back to back on the same engine workers,
// with every pass billed to the session's cumulative stats.
func Example() {
	g := graph.Path(5)
	s, err := clique.New(g)
	if err != nil {
		panic(err)
	}
	defer s.Close()

	bfs := algo.NewBFSKernel(0)
	if err := s.Run(context.Background(), bfs); err != nil {
		panic(err)
	}
	fmt.Println("bfs from 0:", bfs.Dist())

	ks := algo.NewKSourceKernel([]core.NodeID{4}, 2)
	if err := s.Run(context.Background(), ks); err != nil {
		panic(err)
	}
	fmt.Println("dist from 4:", ks.Dist()[0])

	st := s.Stats()
	fmt.Println("kernels run:", st.Kernels)
	fmt.Println("engine passes:", st.Runs)
	// Output:
	// bfs from 0: [0 1 2 3 4]
	// dist from 4: [4 3 2 1 0]
	// kernels run: 2
	// engine passes: 3
}
