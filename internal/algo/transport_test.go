package algo

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// rankRun is what one process of a (possibly single-rank) clique saw of
// a kernel run.
type rankRun struct {
	result  any
	stats   clique.Stats
	digests []uint64
}

// runRank runs a fresh kernel on a session over g bound to tr (nil for
// the in-process transport).
func runRank(g *graph.CSR, newKernel func() clique.Kernel, tr engine.Transport) (rankRun, error) {
	opts := []clique.Option{clique.WithDigests()}
	if tr != nil {
		opts = append(opts, clique.WithTransport(tr))
	}
	s, err := clique.New(g, opts...)
	if err != nil {
		if tr != nil {
			tr.Close()
		}
		return rankRun{}, err
	}
	defer s.Close()
	k := newKernel()
	if err := s.Run(context.Background(), k); err != nil {
		return rankRun{}, err
	}
	return rankRun{result: k.Result(), stats: s.Stats(), digests: s.Digests()}, nil
}

// runCluster runs the kernel on every rank of a fresh cluster of the
// named transport, one goroutine per rank.
func runCluster(t *testing.T, g *graph.CSR, newKernel func() clique.Kernel, transport string, ranks int) []rankRun {
	t.Helper()
	trs, err := engine.NewTransportCluster(transport, ranks)
	if err != nil {
		t.Fatalf("NewTransportCluster: %v", err)
	}
	runs := make([]rankRun, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			runs[rank], errs[rank] = runRank(g, newKernel, trs[rank])
		}(i)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return runs
}

// TestApproxSSSPAcrossTransports runs the paper's headline kernel on a
// clique sharded across socket-transport ranks and requires the result
// to be indistinguishable from the in-process run: every rank must
// hold the complete distance vector (the session gathers every pass's
// rows) bit-identical to the MemTransport reference, and every
// rank's replay digest chain must match it round for round.
func TestApproxSSSPAcrossTransports(t *testing.T) {
	const n = 64
	g := graph.RandomGNP(n, 0.15, 1).WithUniformRandomWeights(2, 16)
	newKernel := func() clique.Kernel { return NewApproxSSSPKernel(0, hopset.Params{}) }

	want, err := runRank(g, newKernel, nil)
	if err != nil {
		t.Fatalf("mem reference: %v", err)
	}
	if want.result == nil || len(want.digests) == 0 {
		t.Fatalf("mem reference produced dist %v, %d digests", want.result, len(want.digests))
	}

	for _, tc := range []struct {
		transport string
		ranks     int
	}{
		{"socket-unix", 2},
		{"socket-tcp", 3},
	} {
		t.Run(fmt.Sprintf("%s-r%d", tc.transport, tc.ranks), func(t *testing.T) {
			for rank, got := range runCluster(t, g, newKernel, tc.transport, tc.ranks) {
				if !reflect.DeepEqual(got.result, want.result) {
					t.Errorf("rank %d distances diverge from the in-process run", rank)
				}
				if !reflect.DeepEqual(got.digests, want.digests) {
					t.Errorf("rank %d digest chain diverges from the in-process run (%d vs %d rounds)",
						rank, len(got.digests), len(want.digests))
				}
			}
		})
	}
}

// TestEarlyStopAcrossRanks: every rank of a socket clique reads the
// stop verdict off the nodes it executes itself, so all of them must
// leave each product loop after the same product as the in-process run
// — the same pass count, rounds, words, digest chain and result on
// ranks that hold node 0 and on ranks that only ever hear from it. Both
// kernels stop early on this graph (the reference run checks it).
func TestEarlyStopAcrossRanks(t *testing.T) {
	const n = 48
	g := graph.RandomGNPWeighted(n, 0.15, 16, 9)
	for name, tc := range map[string]struct {
		newKernel func() clique.Kernel
		allPasses int
	}{
		"approx-sssp": {func() clique.Kernel { return NewApproxSSSPKernel(0, hopset.Params{}) },
			hopset.DefaultBeta(n) + RelaxProducts(hopset.DefaultBeta(n), n)},
		"apsp": {func() clique.Kernel { return NewAPSPKernel() }, bits.Len(n - 2)},
	} {
		want, err := runRank(g, tc.newKernel, nil)
		if err != nil {
			t.Fatalf("%s mem reference: %v", name, err)
		}
		if want.stats.Runs >= tc.allPasses {
			t.Fatalf("%s ran %d passes in process; the fixture must stop before all %d", name, want.stats.Runs, tc.allPasses)
		}
		for _, ranks := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s-r%d", name, ranks), func(t *testing.T) {
				for rank, got := range runCluster(t, g, tc.newKernel, "socket-unix", ranks) {
					if got.stats.Runs != want.stats.Runs || got.stats.Engine.Rounds != want.stats.Engine.Rounds ||
						got.stats.Engine.TotalMsgs != want.stats.Engine.TotalMsgs {
						t.Errorf("rank %d ran %d passes, %d rounds, %d words; in process %d, %d, %d", rank,
							got.stats.Runs, got.stats.Engine.Rounds, got.stats.Engine.TotalMsgs,
							want.stats.Runs, want.stats.Engine.Rounds, want.stats.Engine.TotalMsgs)
					}
					if !reflect.DeepEqual(got.digests, want.digests) {
						t.Errorf("rank %d digest chain diverges from the in-process run", rank)
					}
					if !reflect.DeepEqual(got.result, want.result) {
						t.Errorf("rank %d result diverges from the in-process run", rank)
					}
				}
			})
		}
	}
}

// TestEarlyStopWithMoreRanksThanNodes: a rank that executes no node of
// the clique hears no verdict, yet must stay in the loop exactly as long
// as the others — it reads the outcome off the gathered rows, as it
// reads the product. Six vertices over eight ranks, on a graph whose
// first squaring changes something, so "heard nothing" is the wrong
// answer.
func TestEarlyStopWithMoreRanksThanNodes(t *testing.T) {
	g := graph.RandomGNPWeighted(6, 0.7, 4, 3)
	newKernel := func() clique.Kernel { return NewAPSPKernel() }
	want, err := runRank(g, newKernel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.stats.Runs < 2 {
		t.Fatalf("apsp ran %d squaring in process; the fixture needs one that changes something", want.stats.Runs)
	}
	for rank, got := range runCluster(t, g, newKernel, "socket-unix", 8) {
		if got.stats.Runs != want.stats.Runs || !reflect.DeepEqual(got.digests, want.digests) ||
			!reflect.DeepEqual(got.result, want.result) {
			t.Errorf("rank %d ran %d passes (in process %d) or diverged in digests or result", rank, got.stats.Runs, want.stats.Runs)
		}
	}
}

// TestEveryKernelAcrossRanks runs every registered kernel on a socket
// clique — two ranks over 48 vertices, and eight ranks over six, so
// some ranks execute no node at all — and requires every rank's result,
// digest chain, passes, rounds and words to equal the in-process run's:
// each kernel's rows reach every rank at every pass boundary.
func TestEveryKernelAcrossRanks(t *testing.T) {
	for _, tc := range []struct {
		g     *graph.CSR
		ranks int
	}{
		{graph.RandomGNPWeighted(48, 0.15, 16, 9), 2},
		{graph.RandomGNPWeighted(6, 0.7, 4, 3), 8},
	} {
		for _, name := range clique.Kernels() {
			t.Run(fmt.Sprintf("%s-n%d-r%d", name, tc.g.N, tc.ranks), func(t *testing.T) {
				newKernel := func() clique.Kernel {
					k, err := clique.NewKernel(name, tc.g)
					if err != nil {
						t.Fatal(err)
					}
					return k
				}
				want, err := runRank(tc.g, newKernel, nil)
				if err != nil {
					t.Fatalf("mem reference: %v", err)
				}
				for rank, got := range runCluster(t, tc.g, newKernel, "socket-unix", tc.ranks) {
					got.stats.Engine.Wall, want.stats.Engine.Wall = 0, 0
					if got.stats != want.stats {
						t.Errorf("rank %d ran %d passes, %d rounds, %d words; in process %d, %d, %d", rank,
							got.stats.Runs, got.stats.Engine.Rounds, got.stats.Engine.TotalMsgs,
							want.stats.Runs, want.stats.Engine.Rounds, want.stats.Engine.TotalMsgs)
					}
					if !reflect.DeepEqual(got.digests, want.digests) {
						t.Errorf("rank %d digest chain diverges from the in-process run", rank)
					}
					if !sameJSON(t, got.result, want.result) {
						t.Errorf("rank %d result diverges from the in-process run", rank)
					}
				}
			})
		}
	}
}

// sameJSON compares two results by their JSON encodings, as ccbench's
// result_fnv does: matrix results carry semiring operations, which
// reflect.DeepEqual never finds equal.
func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ea, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}
