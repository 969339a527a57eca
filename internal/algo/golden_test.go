package algo

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// TestGoldenTraffic pins every registered kernel's model-level cost and
// answer on one seeded graph: engine passes, rounds, routed words, and
// the FNV-1a of the result's JSON encoding (the result_fnv ccbench
// reports). A refactor of the kernel layer must leave this table
// untouched; a change that moves a number is a behaviour change and
// has to say so.
//
// The product loops stop at the first product that changes nothing and
// pay for that verdict in-engine (see matmul.Power), so the pass counts
// here are what this graph needs, not what n allows: apsp, widest and
// closure run 5, 5 and 3 of their 6 squarings, the exact k-source
// pipelines 6-7 of 11 products, the approximate ones 10 of 16 (all 8
// hop products, 2 of 8 relaxations). hopset and hop-limited skip
// nothing on this graph; hop-limited carries the votes' cost, at most
// two rounds and 2(n-1) = 94 words per voting product.
//
// No product asks for a row: every operand is a function of the
// undirected input, so its pattern is symmetric and node k streams its
// row of B from round 0 to the columns of its own row of A. And a
// matmul.Relaxation's first product is local — S ⊗ (indicator columns)
// is the sources' columns of S, which every node reads off its own row
// — so it runs no pass, and each product after it streams only the
// entries the product before changed. So the Relaxation rows (approx-*,
// diameter-est*, hopset, ksource, widest-ksource*, and the approx side
// of apsp-vs-approx-sssp) run one pass fewer than they have products,
// and pay for what is still unsettled, not for the width of the columns
// or for asking: hopset's 8 products take 63 rounds re-sending whole
// rows with every product asking, 52 sending only changed entries, 45
// asking once, and 41 in 7 passes asking never.
//
// Every vote is self-timed (matmul's mulNode.tally): a node sends its
// ballot when its row first moves, behind the data its link to node 0
// still carries, and node 0 its verdict at its own row's move or the
// first ballot. A row-pull product's vote used to wait for the round
// its bare pass fell silent in; now it overlaps the data, so the
// hopset's passes and the first squaring of every Power take up to a
// round less, and a node that hears the verdict before its row moves
// sends no ballot: hopset 41 rounds and 7,578 words before, 40 and
// 7,575 after; widest at n = 64 43 rounds before, 42 after.
//
// Every matmul.Power squaring after the first is semi-naive: with X the
// base and Δ what the squaring before changed, X ⊗ X = X ⊕ X ⊗ Δ, and
// it runs as a 3D cube-partition pass (q = ⌊n^{1/3}⌋; at n = 48, q = 3):
// each node sends blocks of its rows of X and Δ to the q² cube nodes
// that multiply them and gets back the partial rows of C. So the rows
// driven by Power (apsp, closure, widest, hop-limited, diameter-est and
// stage 1 of ksource and widest-ksource) move a fraction of the words
// that pulling Δ[k] for every k in a row's support did, in the same
// passes with the same results: apsp on this graph 9,376 words in 35
// rounds rather than 37,222 in 36, closure at n = 256 102,270 words
// rather than 541,588 (both before the first squaring stopped asking:
// then 9,026 in 34 and 92,650). Rounds move either way by a few: a cube
// pass pays its phases in full however little changed, and its vote
// goes out when the partial rows arrive rather than at a fixed round.
// The cube nodes keep their blocks of X from one squaring of a chain to
// the next, so every cube squaring after a chain's first ships Δ where
// it shipped X: apsp 7,764 words in 32 rounds, closure at n = 256
// 84,513. Every operand here is symmetric, so only the cube nodes
// (a, b, c) with a ≤ b multiply and each returns its columns as well as
// its rows: apsp 6,273 words in 33 rounds, closure at n = 256 72,631,
// widest at n = 64 17,319 in 43 rounds rather than 22,076 in 42 (a long
// partial column can outlast the rows it replaces).
//
// A Relaxation whose S prices as the 2D block partition (matmul
// relaxPlan: every hopset-augmented S here, the A^h of ksource,
// diameter-est and widest-ksource, and at n = 256 the hopset's rounded
// base of the dense ccbench graph) relaxes by it: its first product
// ships S's blocks, later ones only Δ, and each returns partial rows,
// so it moves fewer words in a few more rounds (approx-ksource 9,834
// words in 43 rounds before, 8,412 in 45 after). Where few products
// follow the one that ships S, it can move more: approx-sssp on the
// sparse G(64, 0.05) 4,044 words before, 4,273 after. The dense
// rounded base at n = 256 prices as 2D too, and there the rounds double
// (diameter-est-approx 90 → 183) for 16 % fewer words.
func TestGoldenTraffic(t *testing.T) {
	g := graph.RandomGNPWeighted(48, 0.15, 30, 7)
	golden := map[string]struct {
		passes, rounds int
		words, fnv     uint64
	}{
		"approx-ksource":      {8, 44, 8409, 0xd9acb2241245fa71},
		"approx-sssp":         {8, 44, 8404, 0x18dadd80a30f4d8e},
		"apsp":                {5, 33, 6273, 0xb4b540697123d577},
		"bellman-ford":        {1, 9, 726, 0x18dadd80a30f4d8e},
		"bfs":                 {1, 5, 350, 0xc95f8d32d9e48726},
		"closure":             {3, 12, 2332, 0x2911f12efe58c0bd},
		"diameter-est":        {6, 35, 19182, 0x2325ebf49e6860b0},
		"diameter-est-approx": {8, 44, 8409, 0x2325ebf49e6860b0},
		"hop-limited":         {4, 26, 18249, 0x099d1aa787d42be3},
		"hopset":              {7, 40, 7575, 0xd7d4d901012be658},
		"ksource":             {5, 30, 19083, 0xd9acb2241245fa71},
		"matmul-square":       {1, 4, 787, 0x61d99dded2f6aae0},
		"mst":                 {4, 11, 1544, 0x4fa8f549950642fd},
		"widest":              {5, 34, 6972, 0x45110c0d9583fbe9},
		"widest-ksource":      {6, 33, 16604, 0xf6838dbd4b2a7382},
	}
	names := clique.Kernels()
	if len(names) != len(golden) {
		t.Fatalf("registry lists %d kernels %v, golden table has %d", len(names), names, len(golden))
	}
	for _, name := range names {
		want, ok := golden[name]
		if !ok {
			t.Errorf("kernel %q has no golden row", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			k, err := clique.NewKernel(name, g)
			if err != nil {
				t.Fatal(err)
			}
			s, err := clique.New(g)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Run(context.Background(), k); err != nil {
				t.Fatal(err)
			}
			enc, err := json.Marshal(k.Result())
			if err != nil {
				t.Fatalf("encoding result: %v", err)
			}
			h := fnv.New64a()
			h.Write(enc)
			st := s.Stats()
			if st.Runs != want.passes || st.Engine.Rounds != want.rounds ||
				st.Engine.TotalMsgs != want.words || h.Sum64() != want.fnv {
				t.Errorf("passes/rounds/words/fnv = %d/%d/%d/%#016x, golden %d/%d/%d/%#016x",
					st.Runs, st.Engine.Rounds, st.Engine.TotalMsgs, h.Sum64(),
					want.passes, want.rounds, want.words, want.fnv)
			}
		})
	}

	// The rows below were the committed BENCH_kernels/hopset/matmul.json
	// baselines, which CI once re-measured and diffed at a 10% tolerance;
	// here they are exact.
	//
	// Kernels on the instance ccbench -kernel runs: passes/rounds/words.
	for _, row := range []struct {
		name           string
		n              int
		passes, rounds int
		words          uint64
	}{
		{"widest", 64, 6, 42, 17319},
		{"widest-ksource", 64, 7, 37, 32232},
		{"closure", 64, 3, 13, 5287},
		{"mst", 64, 4, 11, 2592},
		{"diameter-est", 64, 5, 32, 35938},
		{"diameter-est-approx", 64, 9, 49, 15470},
		{"widest", 256, 5, 61, 324908},
		{"widest-ksource", 256, 5, 59, 391625},
		{"closure", 256, 3, 16, 72631},
		{"mst", 256, 4, 11, 39248},
		{"diameter-est", 256, 5, 73, 496224},
		{"diameter-est-approx", 256, 10, 183, 472554},
	} {
		t.Run(fmt.Sprintf("%s-%d", row.name, row.n), func(t *testing.T) {
			g := graph.RandomGNP(row.n, 0.15, 1).WithUniformRandomWeights(2, 16)
			k, err := clique.NewKernel(row.name, g)
			if err != nil {
				t.Fatal(err)
			}
			st := goldenStats(t, g, k)
			if st.Runs != row.passes || st.Engine.Rounds != row.rounds || st.Engine.TotalMsgs != row.words {
				t.Errorf("passes/rounds/words = %d/%d/%d, golden %d/%d/%d",
					st.Runs, st.Engine.Rounds, st.Engine.TotalMsgs, row.passes, row.rounds, row.words)
			}
		})
	}

	// Exact APSP against hopset-based approximate SSSP on a sparse
	// weighted G(n, 0.05), with β = 2⌈√n⌉ and ~1.5√n hubs: rounds/words.
	for _, row := range []struct {
		n                        int
		apspRounds, approxRounds int
		apspWords, approxWords   uint64
	}{
		{32, 26, 39, 1802, 505},
		{64, 37, 63, 14106, 4273},
	} {
		t.Run(fmt.Sprintf("apsp-vs-approx-sssp-%d", row.n), func(t *testing.T) {
			g := graph.RandomGNPWeighted(row.n, 0.05, 32, 1)
			rootN := math.Sqrt(float64(row.n))
			params := hopset.Params{
				Beta:    2 * int(math.Ceil(rootN)),
				Eps:     0.5,
				HubRate: math.Min(1, 1.5*rootN/float64(row.n)),
				Seed:    7,
			}
			apsp := goldenStats(t, g, NewAPSPKernel()).Engine
			approx := goldenStats(t, g, NewApproxSSSPKernel(0, params)).Engine
			if apsp.Rounds != row.apspRounds || apsp.TotalMsgs != row.apspWords ||
				approx.Rounds != row.approxRounds || approx.TotalMsgs != row.approxWords {
				t.Errorf("apsp %d/%d, approx-sssp %d/%d rounds/words; golden %d/%d, %d/%d",
					apsp.Rounds, apsp.TotalMsgs, approx.Rounds, approx.TotalMsgs,
					row.apspRounds, row.apspWords, row.approxRounds, row.approxWords)
			}
		})
	}

	// One (min,+) squaring of a weighted G(n, 0.1): rounds/words/nnz_out.
	for _, row := range []struct {
		n, rounds int
		words     uint64
		nnzOut    int
	}{
		{32, 3, 171, 462},
		{64, 4, 906, 2398},
	} {
		t.Run(fmt.Sprintf("matmul-square-%d", row.n), func(t *testing.T) {
			a, err := matmul.FromGraph(graph.RandomGNP(row.n, 0.1, 1).WithUniformRandomWeights(2, 32), core.MinPlus(), true)
			if err != nil {
				t.Fatal(err)
			}
			s, err := clique.NewSize(row.n)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			k := matmul.NewPower(a, 2)
			if err := s.Run(context.Background(), k); err != nil {
				t.Fatal(err)
			}
			st, nnz := s.Stats().Engine, k.Result().(*matmul.Matrix).NNZ()
			if st.Rounds != row.rounds || st.TotalMsgs != row.words || nnz != row.nnzOut {
				t.Errorf("rounds/words/nnz_out = %d/%d/%d, golden %d/%d/%d",
					st.Rounds, st.TotalMsgs, nnz, row.rounds, row.words, row.nnzOut)
			}
		})
	}
}

// goldenStats runs k to completion on a fresh session over g and returns
// the session's cumulative stats.
func goldenStats(t *testing.T, g *graph.CSR, k clique.Kernel) clique.Stats {
	t.Helper()
	s, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	return s.Stats()
}
