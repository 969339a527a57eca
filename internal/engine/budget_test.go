// Link-budget counter tests: the cases a per-worker, binding-stamped
// counter can get wrong where a per-pair one cannot — two senders that
// share a worker, a worker that never rebinds to another node, and an
// engine reused after a run that died with links part-used.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// capBudget allows exactly msgs whole messages per link per round.
func capBudget(msgs int) core.Budget {
	return core.Budget{BitsPerLink: msgs * core.WordBits, MsgBits: core.WordBits}
}

// fillAllNode fills every one of its links to the cap in each of the
// first rounds rounds and checks that every round after the first
// delivers exactly cap words from every other node, in source order.
type fillAllNode struct {
	n, linkCap, rounds int
	tag                uint64
}

func (f *fillAllNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	want := 0
	if r > 0 {
		want = (f.n - 1) * f.linkCap
	}
	if len(inbox) != want {
		return fmt.Errorf("node %d round %d: inbox holds %d words, want %d", ctx.ID(), r, len(inbox), want)
	}
	for i, m := range inbox {
		src := i / f.linkCap
		if src >= int(ctx.ID()) {
			src++
		}
		if m.Src != core.NodeID(src) || m.Payload != f.tag+uint64(r-1) {
			return fmt.Errorf("node %d round %d: inbox[%d] = %+v, want src %d payload %d", ctx.ID(), r, i, m, src, f.tag+uint64(r-1))
		}
	}
	if int(r) >= f.rounds {
		return nil
	}
	for dst := 0; dst < f.n; dst++ {
		if core.NodeID(dst) == ctx.ID() {
			continue
		}
		for k := 0; k < f.linkCap; k++ {
			if err := ctx.Send(core.NodeID(dst), f.tag+uint64(r)); err != nil {
				return err
			}
		}
	}
	return nil
}

func fillAllNodes(n, linkCap, rounds int, tag uint64) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &fillAllNode{n: n, linkCap: linkCap, rounds: rounds, tag: tag}
	}
	return nodes
}

// TestFullLinksEveryRound: every node fills every link to the cap in
// consecutive rounds. With several nodes on one worker (n=3/W=1,
// n=5/W=2) two senders fill their links to the same destination in one
// round; with n=2/W=2 each worker stays bound to a single node, so only
// the round flip separates one round's counts from the next.
func TestFullLinksEveryRound(t *testing.T) {
	const rounds = 6
	for _, tc := range []struct{ n, workers, linkCap int }{
		{3, 1, 1}, {3, 1, 4}, {2, 2, 1}, {2, 2, 4}, {2, 1, 4}, {5, 2, 4}, {5, 5, 300},
	} {
		t.Run(fmt.Sprintf("n%d-w%d-cap%d", tc.n, tc.workers, tc.linkCap), func(t *testing.T) {
			opts := Options{Workers: tc.workers, Budget: capBudget(tc.linkCap)}
			stats, err := RunOnce(fillAllNodes(tc.n, tc.linkCap, rounds, 1000), opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(rounds * tc.n * (tc.n - 1) * tc.linkCap); stats.TotalMsgs != want {
				t.Errorf("TotalMsgs = %d, want %d", stats.TotalMsgs, want)
			}
		})
	}
}

// TestOverCapQueuesNothing: at caps 1, 4 and 300, in three consecutive
// rounds, message cap+1 on a link is refused with a *BandwidthError
// naming exactly the link, round and cap, and is not delivered.
func TestOverCapQueuesNothing(t *testing.T) {
	const n, src, dst, rounds = 4, 2, 1, 3
	for _, linkCap := range []int{1, 4, 300} {
		t.Run(fmt.Sprintf("cap%d", linkCap), func(t *testing.T) {
			delivered := make([]int, rounds+1)
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
					if ctx.ID() == dst {
						delivered[r] = len(inbox)
						for _, m := range inbox {
							if m.Src != src || m.Payload >= uint64(linkCap) {
								t.Errorf("round %d: delivered %+v, want payloads below %d from node %d", r, m, linkCap, src)
							}
						}
					}
					if ctx.ID() != src || r >= rounds {
						return nil
					}
					for k := 0; k <= linkCap; k++ {
						err := ctx.Send(dst, uint64(k))
						if k < linkCap {
							if err != nil {
								return err
							}
							continue
						}
						var bwe *BandwidthError
						if !errors.As(err, &bwe) {
							t.Errorf("round %d: send %d on a %d-message link returned %v, want *BandwidthError", r, k+1, linkCap, err)
						} else if *bwe != (BandwidthError{Src: src, Dst: dst, Round: r, Cap: linkCap}) {
							t.Errorf("round %d: BandwidthError = %+v, want link %d->%d round %d cap %d", r, *bwe, src, dst, r, linkCap)
						}
					}
					// The refused link must not have spoiled the others.
					return ctx.Send(dst+2, 0)
				})
			}
			stats, err := RunOnce(nodes, Options{Workers: 1, Budget: capBudget(linkCap)})
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(rounds * (linkCap + 1)); stats.TotalMsgs != want {
				t.Errorf("TotalMsgs = %d, want %d (the refused words must not be counted)", stats.TotalMsgs, want)
			}
			for r := 1; r <= rounds; r++ {
				if delivered[r] != linkCap {
					t.Errorf("round %d delivered %d words on the link, want %d", r, delivered[r], linkCap)
				}
			}
		})
	}
}

// TestReuseAfterMidRoundDeath: a run dies in round 1 with every inbox
// full, links part-used and words queued by the nodes that ran before
// the failing one. The next Run on the same engine must start with zero
// link counts (every link takes the full cap in round 0) and empty
// inboxes and boxes (fillAllNode rejects any word it did not expect).
func TestReuseAfterMidRoundDeath(t *testing.T) {
	const n, linkCap = 6, 4
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			e, err := New(n, Options{Workers: workers, Budget: capBudget(linkCap)})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			boom := errors.New("boom")
			dying := make([]Node, n)
			for i := range dying {
				dying[i] = funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
					for dst := 0; dst < n; dst++ {
						if core.NodeID(dst) == ctx.ID() {
							continue
						}
						for k := 0; k < linkCap-1; k++ { // part-used: one short of the cap
							if err := ctx.Send(core.NodeID(dst), 0xdead); err != nil {
								return err
							}
						}
					}
					if r == 1 && ctx.ID() == n-1 {
						return boom
					}
					return nil
				})
			}
			if _, err := e.Run(context.Background(), dying); !errors.Is(err, boom) {
				t.Fatalf("first run returned %v, want boom", err)
			}
			queued := 0
			for _, c := range e.rt.ctxs {
				for _, box := range c.box {
					queued += len(box)
				}
			}
			if queued == 0 {
				t.Fatal("the dead run left no queued words: the test no longer exercises the reset")
			}
			stats, err := e.Run(context.Background(), fillAllNodes(n, linkCap, 3, 7000))
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(3 * n * (n - 1) * linkCap); stats.TotalMsgs != want {
				t.Errorf("TotalMsgs = %d, want %d", stats.TotalMsgs, want)
			}
		})
	}
}

// TestEngineFootprint: an engine's memory is O(workers * n), not
// O(n^2) — per-pair link counters alone were 402 MB at n = 8192.
func TestEngineFootprint(t *testing.T) {
	const n, limit = 8192, 8 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(n, Options{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("engine.New(%d) allocated %d bytes, want at most %d", n, got, limit)
	}
}
