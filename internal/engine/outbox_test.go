package engine

import (
	"errors"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// obNode drains a pre-filled Outbox via Flush each round and records
// everything it receives.
type obNode struct {
	ob   *Outbox
	got  map[core.NodeID][]uint64
	over bool // if set, use the link to dst 1 before flushing
}

func (nd *obNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	for _, m := range inbox {
		if nd.got == nil {
			nd.got = make(map[core.NodeID][]uint64)
		}
		nd.got[m.Src] = append(nd.got[m.Src], m.Payload)
	}
	if nd.ob == nil {
		return nil
	}
	if nd.over && ctx.ID() == 0 {
		if err := ctx.Send(1, 0xdead); err != nil {
			return err
		}
	}
	return nd.ob.Flush(ctx)
}

// TestOutboxDrainsUnderBudget queues far more words per destination
// than one round's budget and checks that every word arrives, in order,
// without any BandwidthError.
func TestOutboxDrainsUnderBudget(t *testing.T) {
	const n = 8
	const perDst = 10
	nodes := make([]Node, n)
	state := make([]obNode, n)
	ob := NewOutbox(n)
	for dst := 1; dst < n; dst++ {
		for k := 0; k < perDst; k++ {
			ob.Push(core.NodeID(dst), uint64(dst*100+k))
		}
	}
	want := ob.Pending()
	if want != (n-1)*perDst {
		t.Fatalf("Pending = %d, want %d", want, (n-1)*perDst)
	}
	state[0].ob = ob
	for i := range state {
		nodes[i] = &state[i]
	}
	stats, err := RunOnce(nodes, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ob.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", ob.Pending())
	}
	if stats.TotalMsgs != uint64(want) {
		t.Fatalf("TotalMsgs = %d, want %d", stats.TotalMsgs, want)
	}
	// One message per link per round => draining perDst words per
	// destination needs at least perDst send-rounds.
	if stats.Rounds < perDst {
		t.Fatalf("Rounds = %d, want >= %d (budget-paced drain)", stats.Rounds, perDst)
	}
	for dst := 1; dst < n; dst++ {
		got := state[dst].got[0]
		if len(got) != perDst {
			t.Fatalf("dst %d received %d words, want %d", dst, len(got), perDst)
		}
		for k, w := range got {
			if w != uint64(dst*100+k) {
				t.Fatalf("dst %d word %d = %d, want %d (order violated)", dst, k, w, dst*100+k)
			}
		}
	}
}

// TestOutboxSurfacesBandwidthError checks that when the node spends its
// link budget outside the Outbox, Flush surfaces the router's
// *BandwidthError instead of panicking or silently dropping.
func TestOutboxSurfacesBandwidthError(t *testing.T) {
	const n = 4
	nodes := make([]Node, n)
	state := make([]obNode, n)
	ob := NewOutbox(n)
	ob.Push(1, 7)
	state[0].ob = ob
	state[0].over = true
	for i := range state {
		nodes[i] = &state[i]
	}
	_, err := RunOnce(nodes, Options{})
	var bwe *BandwidthError
	if !errors.As(err, &bwe) {
		t.Fatalf("Run error = %v, want *BandwidthError", err)
	}
	if ob.Pending() != 1 {
		t.Fatalf("Pending = %d after failed flush, want 1 (word retained)", ob.Pending())
	}
}

// TestOutboxPushSharedBroadcast streams one shared slice to every other
// node without copying and checks complete in-order delivery, plus the
// documented ordering: copied words before shared segments.
func TestOutboxPushSharedBroadcast(t *testing.T) {
	const n = 6
	row := make([]uint64, 9)
	for i := range row {
		row[i] = uint64(1000 + i)
	}
	nodes := make([]Node, n)
	state := make([]obNode, n)
	ob := NewOutbox(n)
	for dst := 1; dst < n; dst++ {
		ob.Push(core.NodeID(dst), 7) // copied word, delivered first
		ob.PushShared(core.NodeID(dst), row)
	}
	wantTotal := (n - 1) * (1 + len(row))
	if ob.Pending() != wantTotal {
		t.Fatalf("Pending = %d, want %d", ob.Pending(), wantTotal)
	}
	state[0].ob = ob
	for i := range state {
		nodes[i] = &state[i]
	}
	stats, err := RunOnce(nodes, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.TotalMsgs != uint64(wantTotal) || ob.Pending() != 0 {
		t.Fatalf("TotalMsgs = %d (pending %d), want %d (0)", stats.TotalMsgs, ob.Pending(), wantTotal)
	}
	for dst := 1; dst < n; dst++ {
		got := state[dst].got[0]
		if len(got) != 1+len(row) {
			t.Fatalf("dst %d received %d words, want %d", dst, len(got), 1+len(row))
		}
		if got[0] != 7 {
			t.Fatalf("dst %d word 0 = %d, want copied word 7 first", dst, got[0])
		}
		for i, w := range got[1:] {
			if w != row[i] {
				t.Fatalf("dst %d shared word %d = %d, want %d", dst, i, w, row[i])
			}
		}
	}
}

// TestOutboxPushSharedSegments queues multiple shared segments for one
// destination and checks FIFO across segments under pacing.
func TestOutboxPushSharedSegments(t *testing.T) {
	const n = 4
	nodes := make([]Node, n)
	state := make([]obNode, n)
	ob := NewOutbox(n)
	ob.PushShared(2, []uint64{1, 2, 3})
	ob.PushShared(2, nil) // no-op
	ob.PushShared(2, []uint64{4, 5})
	if ob.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", ob.Pending())
	}
	state[0].ob = ob
	for i := range state {
		nodes[i] = &state[i]
	}
	if _, err := RunOnce(nodes, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := state[2].got[0]
	for i, w := range got {
		if w != uint64(i+1) {
			t.Fatalf("word %d = %d, want %d (FIFO across segments)", i, w, i+1)
		}
	}
	if len(got) != 5 {
		t.Fatalf("received %d words, want 5", len(got))
	}
}

// TestOutboxReuse pushes, drains, and pushes again to exercise the
// compaction path.
func TestOutboxReuse(t *testing.T) {
	ob := NewOutbox(4)
	ob.Push(2, 1)
	ob.Push(2, 2)
	if ob.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", ob.Pending())
	}
	// Drain manually via the internal bookkeeping used by Flush.
	ob.head[2] = 2
	ob.total = 0
	ob.active = ob.active[:0]
	ob.Push(2, 3)
	if ob.Pending() != 1 || len(ob.active) != 1 {
		t.Fatalf("after reuse: Pending=%d active=%d, want 1/1", ob.Pending(), len(ob.active))
	}
	if got := ob.pending[2][ob.head[2]]; got != 3 {
		t.Fatalf("head word = %d, want 3", got)
	}
}

// TestOutboxFlushesExactlyLinkCapEachRound is the boundary test at the
// bandwidth cap: a Flush-driven drain must send exactly one word on the
// link in every round until the queue is empty — never zero (a pacing
// undershoot) and never two (a budget violation) — and then fall quiet.
func TestOutboxFlushesExactlyLinkCapEachRound(t *testing.T) {
	for _, tc := range []struct {
		queued   int
		wantMsgs []uint64 // per-round message counts, including the quiet round
	}{
		{queued: 1, wantMsgs: []uint64{1, 0}},
		{queued: 4, wantMsgs: []uint64{1, 1, 1, 1, 0}},
	} {
		const n = 2
		nodes := make([]Node, n)
		state := make([]obNode, n)
		ob := NewOutbox(n)
		for k := 0; k < tc.queued; k++ {
			ob.Push(1, uint64(k))
		}
		state[0].ob = ob
		for i := range state {
			nodes[i] = &state[i]
		}
		var perRound []uint64
		stats, err := RunOnce(nodes, Options{RoundHook: func(rs RoundStats) { perRound = append(perRound, rs.Msgs) }})
		if err != nil {
			t.Fatalf("queued=%d: %v", tc.queued, err)
		}
		if got := state[0].ob.Pending(); got != 0 {
			t.Fatalf("queued=%d: %d words still pending", tc.queued, got)
		}
		if stats.Rounds != len(tc.wantMsgs) {
			t.Fatalf("queued=%d: %d rounds, want %d", tc.queued, stats.Rounds, len(tc.wantMsgs))
		}
		for r, want := range tc.wantMsgs {
			if got := perRound[r]; got != want {
				t.Fatalf("queued=%d: round %d sent %d words, want exactly %d",
					tc.queued, r, got, want)
			}
		}
		// Everything arrived, in order.
		got := state[1].got[0]
		if len(got) != tc.queued {
			t.Fatalf("queued=%d: delivered %d", tc.queued, len(got))
		}
		for k, w := range got {
			if w != uint64(k) {
				t.Fatalf("queued=%d: word %d = %d (order violated)", tc.queued, k, w)
			}
		}
	}
}
