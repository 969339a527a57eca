// Link-mark tests: the cases a per-worker, binding-stamped mark can
// get wrong where a per-pair one cannot — two senders that share a
// worker, a worker that never rebinds to another node, and an engine
// reused after a run that died with some links used.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// fillAllNode uses every one of its links in each of the first rounds
// rounds and checks that every round after the first delivers exactly
// one word from every other node, in source order.
type fillAllNode struct {
	n, rounds int
	tag       uint64
}

func (f *fillAllNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	want := 0
	if r > 0 {
		want = f.n - 1
	}
	if len(inbox) != want {
		return fmt.Errorf("node %d round %d: inbox holds %d words, want %d", ctx.ID(), r, len(inbox), want)
	}
	for i, m := range inbox {
		src := i
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
		if err := ctx.Send(core.NodeID(dst), f.tag+uint64(r)); err != nil {
			return err
		}
	}
	return nil
}

func fillAllNodes(n, rounds int, tag uint64) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &fillAllNode{n: n, rounds: rounds, tag: tag}
	}
	return nodes
}

// TestFullLinksEveryRound: every node uses every link in consecutive
// rounds. With several nodes on one worker (n=3/W=1, n=5/W=2, and the
// uneven shares of n=7/W=3 and n=16/W=3) two senders use their links
// to the same destination in one round; with
// n=2/W=2 each worker stays bound to a single node, so only the round
// flip separates one round's marks from the next.
func TestFullLinksEveryRound(t *testing.T) {
	const rounds = 6
	for _, tc := range []struct{ n, workers int }{
		{3, 1}, {2, 2}, {2, 1}, {5, 2}, {5, 5}, {7, 3}, {8, 4}, {16, 3},
	} {
		t.Run(fmt.Sprintf("n%d-w%d", tc.n, tc.workers), func(t *testing.T) {
			stats, err := RunOnce(fillAllNodes(tc.n, rounds, 1000), Options{Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(rounds * tc.n * (tc.n - 1)); stats.TotalMsgs != want {
				t.Errorf("TotalMsgs = %d, want %d", stats.TotalMsgs, want)
			}
		})
	}
}

// TestOverCapQueuesNothing: in three consecutive rounds, a second
// message on a link is refused with a *BandwidthError naming exactly
// the link and round, and is not delivered, whether the sender shares
// its worker with the destination or not.
func TestOverCapQueuesNothing(t *testing.T) {
	const n, src, dst, rounds = 4, 2, 1, 3
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			delivered := make([]int, rounds+1)
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
					if ctx.ID() == dst {
						delivered[r] = len(inbox)
						for _, m := range inbox {
							if m.Src != src || m.Payload != 0 {
								t.Errorf("round %d: delivered %+v, want payload 0 from node %d", r, m, src)
							}
						}
					}
					if ctx.ID() != src || r >= rounds {
						return nil
					}
					if err := ctx.Send(dst, 0); err != nil {
						return err
					}
					err := ctx.Send(dst, 1)
					var bwe *BandwidthError
					if !errors.As(err, &bwe) {
						t.Errorf("round %d: second send on a link returned %v, want *BandwidthError", r, err)
					} else if *bwe != (BandwidthError{Src: src, Dst: dst, Round: r}) {
						t.Errorf("round %d: BandwidthError = %+v, want link %d->%d round %d", r, *bwe, src, dst, r)
					}
					// The refused link must not have spoiled the others.
					return ctx.Send(dst+2, 0)
				})
			}
			stats, err := RunOnce(nodes, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(rounds * 2); stats.TotalMsgs != want {
				t.Errorf("TotalMsgs = %d, want %d (the refused words must not be counted)", stats.TotalMsgs, want)
			}
			for r := 1; r <= rounds; r++ {
				if delivered[r] != 1 {
					t.Errorf("round %d delivered %d words on the link, want 1", r, delivered[r])
				}
			}
		})
	}
}

// TestBandwidthErrorMessage: the refusal names the link, the round and
// the one-message limit it broke.
func TestBandwidthErrorMessage(t *testing.T) {
	msg := (&BandwidthError{Src: 2, Dst: 7, Round: 5}).Error()
	for _, want := range []string{"link 2->7", "round 5", "one message per link per round"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q does not mention %q", msg, want)
		}
	}
}

// TestReuseAfterMidRoundDeath: a run dies in round 1 with every inbox
// full, some links used and words queued by the nodes that ran before
// the failing one. The next Run on the same engine must start with no
// link marks (every link takes its word in round 0) and empty inboxes
// and boxes (fillAllNode rejects any word it did not expect).
func TestReuseAfterMidRoundDeath(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			e, err := New(n, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			boom := errors.New("boom")
			dying := make([]Node, n)
			for i := range dying {
				dying[i] = funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
					for dst := 0; dst < n; dst += 2 { // some links used, the rest not
						if core.NodeID(dst) == ctx.ID() {
							continue
						}
						if err := ctx.Send(core.NodeID(dst), 0xdead); err != nil {
							return err
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
			stats, err := e.Run(context.Background(), fillAllNodes(n, 3, 7000))
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(3 * n * (n - 1)); stats.TotalMsgs != want {
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
