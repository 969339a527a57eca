package algo

import (
	"context"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// TestClosureMovesFewerWordsThanAPSP measures the model-level claim of
// the packed wire format on one seeded graph: the same squarings on the
// boolean semiring ship 1-bit fields and must cost strictly fewer words
// than on (min,+). (With one entry per word the two were equal.)
func TestClosureMovesFewerWordsThanAPSP(t *testing.T) {
	g := graph.RandomGNPWeighted(64, 0.1, 30, 17)
	apsp := runKernel(t, g, NewAPSPKernel())
	closure := runKernel(t, g, NewTransitiveClosureKernel())
	if closure.TotalMsgs >= apsp.TotalMsgs {
		t.Fatalf("closure moved %d words, apsp %d: boolean entries must pack tighter than distances",
			closure.TotalMsgs, apsp.TotalMsgs)
	}
	if closure.Rounds > apsp.Rounds {
		t.Fatalf("closure took %d rounds, apsp %d: fewer words per row cannot take more rounds",
			closure.Rounds, apsp.Rounds)
	}
}

// TestBooleanSquaringRoundBound squares a full n x n boolean operand
// and reads the cost off the engine's own accounting: a row of n 1-bit
// fields is ceil(n / columnsPerWord) words, streamed at one word per
// link per round from round 0 to every other node, plus the round the
// last words arrive in, in which nothing is sent; nobody asks for a row.
func TestBooleanSquaringRoundBound(t *testing.T) {
	const n = 160
	a, err := matmul.FromGraph(graph.Clique(n), core.BoolOrAnd(), true)
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	if a.NNZ() != n*n {
		t.Fatalf("operand has %d entries, want a full %d x %d", a.NNZ(), n, n)
	}
	var perRound []engine.RoundStats
	s, err := clique.NewSize(n, clique.WithRoundHook(func(rs engine.RoundStats) { perRound = append(perRound, rs) }))
	if err != nil {
		t.Fatalf("NewSize: %v", err)
	}
	defer s.Close()
	k := matmul.NewPower(a, 2)
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatalf("squaring: %v", err) // includes any *engine.BandwidthError
	}
	if got := k.Result().(*matmul.Matrix).NNZ(); got != n*n {
		t.Fatalf("product has %d entries, want %d", got, n*n)
	}
	st := s.Stats()
	if st.Runs != 1 {
		t.Fatalf("squaring took %d engine passes, want 1", st.Runs)
	}

	columnsPerWord := 63 - core.Log2Ceil(n) // one flag bit, then the start column
	rowWords := (n + columnsPerWord - 1) / columnsPerWord
	run := st.Engine
	if bound := rowWords + 1; run.Rounds > bound {
		t.Fatalf("full boolean squaring took %d rounds, want <= ceil(%d/%d)+1 = %d",
			run.Rounds, n, columnsPerWord, bound)
	}
	// The router rejects a second word on a link with a
	// BandwidthError, which Run would have returned; the per-round
	// totals must agree.
	links := uint64(n * (n - 1))
	for _, rs := range perRound {
		if rs.Msgs > links {
			t.Fatalf("round %d carried %d words over %d links of one word each", rs.Round, rs.Msgs, links)
		}
	}
	// Every node receives n-1 rows, each as rowWords words.
	if want := links * uint64(rowWords); run.TotalMsgs != want {
		t.Fatalf("squaring moved %d words, want %d x %d row words = %d",
			run.TotalMsgs, links, rowWords, want)
	}
}
