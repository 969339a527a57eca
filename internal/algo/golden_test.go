package algo

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// TestGoldenTraffic pins every registered kernel's model-level cost and
// answer on one seeded graph: engine passes, rounds, routed words, and
// the FNV-1a of the result's JSON encoding (the result_fnv ccnode
// reports). A refactor of the kernel layer must leave this table
// untouched; a change that moves a number is a behaviour change and
// has to say so.
//
// The product loops stop at the first product that changes nothing and
// pay for that verdict in-engine (matmul.Pass.Vote), so the pass counts
// here are what this graph needs, not what n allows: apsp, widest and
// closure run 5, 5 and 3 of their 6 squarings, the exact k-source
// pipelines 6-7 of 11 products, the approximate ones 10 of 16 (all 8
// hop products, 2 of 8 relaxations). hopset and hop-limited skip
// nothing on this graph and carry only the votes' cost: one round and
// at most 2(n-1) = 94 words per voting product.
func TestGoldenTraffic(t *testing.T) {
	g := graph.RandomGNPWeighted(48, 0.15, 30, 7)
	golden := map[string]struct {
		passes, rounds int
		words, fnv     uint64
	}{
		"approx-ksource":      {10, 70, 24067, 0xd9acb2241245fa71},
		"approx-sssp":         {10, 71, 24020, 0x18dadd80a30f4d8e},
		"apsp":                {5, 42, 60167, 0xb4b540697123d577},
		"bellman-ford":        {1, 9, 726, 0x18dadd80a30f4d8e},
		"bfs":                 {1, 5, 350, 0xc95f8d32d9e48726},
		"closure":             {3, 11, 8731, 0x2911f12efe58c0bd},
		"diameter-est":        {7, 42, 42271, 0x2325ebf49e6860b0},
		"diameter-est-approx": {10, 70, 24161, 0x2325ebf49e6860b0},
		"hop-limited":         {4, 30, 30661, 0x099d1aa787d42be3},
		"hopset":              {8, 63, 17111, 0xd7d4d901012be658},
		"ksource":             {6, 37, 37617, 0xd9acb2241245fa71},
		"matmul-square":       {1, 5, 1137, 0x61d99dded2f6aae0},
		"mst":                 {4, 11, 1544, 0x4fa8f549950642fd},
		"widest":              {5, 38, 51884, 0x45110c0d9583fbe9},
		"widest-ksource":      {7, 39, 38075, 0xf6838dbd4b2a7382},
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
}
