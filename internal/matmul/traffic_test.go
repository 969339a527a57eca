package matmul

import (
	"context"
	"fmt"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// linkCheck wraps one pass node and fails the run when any single link
// delivered more than cap words to it in one round.
type linkCheck struct {
	engine.Node
	cap    int
	perSrc []int
}

func (c *linkCheck) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	for _, m := range inbox {
		c.perSrc[m.Src]++
	}
	for _, m := range inbox {
		if got := c.perSrc[m.Src]; got > c.cap {
			return fmt.Errorf("round %d: link %d->%d carried %d words, cap %d", r, m.Src, ctx.ID(), got, c.cap)
		}
		c.perSrc[m.Src] = 0
	}
	return c.Node.Round(ctx, r, inbox)
}

// TestPassTrafficPinned pins the exact message schedule of one sparse
// and one sparse-dense pass — rounds, routed words, and the final link
// of the engine's replay-digest chain, which folds every delivered
// (destination, source, payload) triple of every round — at link
// capacities of 1 and 4 words, and requires it to be the same at 1 and
// 2 workers. A change to how responders pace their rows must leave
// this table untouched; on the way it checks that no link ever carries
// more than its cap in a round.
func TestPassTrafficPinned(t *testing.T) {
	sr := core.MinPlus()
	g := graph.RandomGNPWeighted(48, 0.15, 30, 7)
	a, err := FromGraph(g, sr, true)
	if err != nil {
		t.Fatal(err)
	}
	// B = A^2: rows of ~40 entries, several wire words each, so pacing
	// spans rounds at either cap.
	a2, err := MulRef(a, a)
	if err != nil {
		t.Fatal(err)
	}
	b := NewDense(a.N, 40, sr) // 40 of A^2's columns, shuffled
	for v := 0; v < a.N; v++ {
		for j := range b.Row(core.NodeID(v)) {
			b.Row(core.NodeID(v))[j] = a2.At(core.NodeID(v), core.NodeID((5*j+3)%a.N))
		}
	}
	passes := map[string]func() (*Pass, error){
		"sparse": func() (*Pass, error) { return NewPass(a, a2, false) },
		"dense":  func() (*Pass, error) { return NewDensePass(a, b, false) },
	}
	golden := []struct {
		pass   string
		cap    int
		rounds int
		words  uint64
		digest uint64
	}{
		{"sparse", 1, 8, 2387, 0xae48a403cdba7d7d},
		{"sparse", 4, 4, 2387, 0xa5411a25f0c10d1b},
		{"dense", 1, 7, 2065, 0x1093c1ab64f31dcf},
		{"dense", 4, 4, 2065, 0x7f5443ed770b662f},
	}
	for _, want := range golden {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/cap%d/w%d", want.pass, want.cap, workers), func(t *testing.T) {
				p, err := passes[want.pass]()
				if err != nil {
					t.Fatal(err)
				}
				nodes := make([]engine.Node, a.N)
				for v, nd := range p.Nodes() {
					nodes[v] = &linkCheck{Node: nd, cap: want.cap, perSrc: make([]int, a.N)}
				}
				e, err := engine.New(a.N, engine.Options{
					Workers:       workers,
					Budget:        core.Budget{BitsPerLink: want.cap * core.WordBits, MsgBits: core.WordBits},
					RecordDigests: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				st, err := e.RunBounded(context.Background(), nodes, p.MaxRoundsHint())
				if err != nil {
					t.Fatal(err)
				}
				digests := e.Digests()
				digest := digests[len(digests)-1]
				if st.Rounds != want.rounds || st.TotalMsgs != want.words || digest != want.digest {
					t.Errorf("rounds/words/digest = %d/%d/%#016x, golden %d/%d/%#016x",
						st.Rounds, st.TotalMsgs, digest, want.rounds, want.words, want.digest)
				}
			})
		}
	}
}
