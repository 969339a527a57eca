package algo

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// TestKSourceDistancesPropertyVsRef: on random weighted G(n,p)
// instances across densities, hop horizons, and source-set sizes, the
// two-stage pipeline must agree with the sequential Bellman-Ford
// reference from every source.
func TestKSourceDistancesPropertyVsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(20)
		p := []float64{0.1, 0.25, 0.5, 0.9}[trial%4]
		seed := rng.Int63()
		g := graph.RandomGNP(n, p, seed).WithUniformRandomWeights(seed+1, 1+int64(rng.Intn(16)))
		k := 1 + rng.Intn(4)
		sources := make([]core.NodeID, k)
		for j := range sources {
			sources[j] = core.NodeID(rng.Intn(n))
		}
		h := 1 + rng.Intn(n+2) // deliberately spans 1 .. beyond n-1
		ks := NewKSourceKernel(sources, h)
		stats, err := runOn(g, ks)
		if err != nil {
			t.Fatalf("trial %d (n=%d p=%.2f h=%d seed=%d): %v", trial, n, p, h, seed, err)
		}
		dist := ks.Dist()
		if g.NumEdges() > 0 && stats.TotalMsgs == 0 && n > 1 {
			t.Fatalf("trial %d: pipeline routed no messages on a non-empty graph", trial)
		}
		for j, src := range sources {
			want := BellmanFordRef(g, src)
			if !reflect.DeepEqual(dist[j], want) {
				t.Fatalf("trial %d (n=%d p=%.2f h=%d seed=%d): source %d\n got %v\nwant %v",
					trial, n, p, h, seed, src, dist[j], want)
			}
		}
	}
}

// TestKSourcePipelineRunsTwoStagesOnOneWarmSession is the acceptance
// check for kernel composition: the pipeline's sparse powering products
// and dense relaxation products all execute as passes of a single
// session, the cumulative Stats bill every stage, and the session stays
// usable for further kernels afterwards.
func TestKSourcePipelineRunsTwoStagesOnOneWarmSession(t *testing.T) {
	g := graph.RandomGNP(24, 0.2, 7).WithUniformRandomWeights(8, 9)
	sources := []core.NodeID{2, 17}
	const h = 4
	s, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := NewKSourceKernel(sources, h)
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatalf("pipeline run: %v", err)
	}
	st := s.Stats()
	if st.Kernels != 1 {
		t.Errorf("Kernels = %d, want 1", st.Kernels)
	}
	// Stage 1 needs at least one squaring for h=4 and stage 2 at least
	// ceil(23/4) = 6 dense products; all on the same engine.
	if st.Runs < 3 {
		t.Errorf("Runs = %d, want >= 3 (multi-pass pipeline on one session)", st.Runs)
	}
	if st.Engine.Rounds == 0 || st.Engine.TotalMsgs == 0 {
		t.Errorf("cumulative stats empty: %+v", st.Engine)
	}
	for j, src := range sources {
		want := BellmanFordRef(g, src)
		if !reflect.DeepEqual(k.Dist()[j], want) {
			t.Fatalf("source %d distances wrong", src)
		}
	}
	// The same warm session runs the next kernel: cross-kernel reuse.
	bfs := NewBFSKernel(0)
	if err := s.Run(context.Background(), bfs); err != nil {
		t.Fatalf("bfs on warm session: %v", err)
	}
	if want := BFSRef(g, 0); !reflect.DeepEqual(bfs.Dist(), want) {
		t.Error("bfs on warm session disagrees with reference")
	}
	if got := s.Stats(); got.Kernels != 2 || got.Runs <= st.Runs {
		t.Errorf("warm session stats did not accumulate: %+v after %+v", got, st)
	}
	// Typed access through the generic bridge works for both kernels.
	if _, err := clique.ResultAs[[][]int64](k); err != nil {
		t.Errorf("ResultAs on ksource: %v", err)
	}
	if _, err := clique.ResultAs[[]int64](bfs); err != nil {
		t.Errorf("ResultAs on bfs: %v", err)
	}
	if _, err := clique.ResultAs[string](bfs); err == nil {
		t.Error("ResultAs with the wrong type did not error")
	}
}

// TestKSourceValidation: bad hop horizons and out-of-range sources must
// be rejected.
func TestKSourceValidation(t *testing.T) {
	g := graph.Path(6).WithUniformRandomWeights(3, 5)
	if _, err := runOn(g, NewKSourceKernel([]core.NodeID{0}, 0)); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := runOn(g, NewKSourceKernel([]core.NodeID{9}, 2)); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestKSourceDegenerate: the pipeline on n=1 and on edgeless graphs.
func TestKSourceDegenerate(t *testing.T) {
	one := graph.Path(1).WithUniformRandomWeights(1, 1)
	k := NewKSourceKernel([]core.NodeID{0}, 3)
	runKernel(t, one, k)
	if dist := k.Dist(); !reflect.DeepEqual(dist, [][]int64{{0}}) {
		t.Fatalf("n=1 dist = %v, want [[0]]", dist)
	}
	empty := graph.RandomGNP(5, 0, 1).WithUnitWeights()
	k = NewKSourceKernel([]core.NodeID{2}, 2)
	runKernel(t, empty, k)
	want := []int64{Unreached, Unreached, 0, Unreached, Unreached}
	if dist := k.Dist(); !reflect.DeepEqual(dist[0], want) {
		t.Fatalf("edgeless dist = %v, want %v", dist[0], want)
	}
}
