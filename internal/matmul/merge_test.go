package matmul

import (
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// TestAddEntrywise: the entrywise sum must equal the brute-force
// per-entry semiring Add on random sparse operands, over both
// semirings.
func TestAddEntrywise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(12)
		sr := core.MinPlus()
		if trial%2 == 1 {
			sr = core.BoolOrAnd()
		}
		a, err := FromGraph(graph.RandomGNPWeighted(n, 0.3, 20, rng.Int63()), sr, trial%3 == 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromGraph(graph.RandomGNPWeighted(n, 0.3, 20, rng.Int63()), sr, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Add(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: invalid sum: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := sr.Add(a.At(core.NodeID(i), core.NodeID(j)), b.At(core.NodeID(i), core.NodeID(j)))
				if got := c.At(core.NodeID(i), core.NodeID(j)); got != want {
					t.Fatalf("trial %d: sum[%d][%d] = %d, want %d", trial, i, j, got, want)
				}
			}
		}
	}
}

// TestAddRejectsMismatch: shape and semiring mismatches are errors.
func TestAddRejectsMismatch(t *testing.T) {
	a := Identity(3, core.MinPlus())
	if _, err := Add(a, Identity(4, core.MinPlus())); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := Add(a, Identity(3, core.BoolOrAnd())); err == nil {
		t.Error("semiring mismatch accepted")
	}
}
