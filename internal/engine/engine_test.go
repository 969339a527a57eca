package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// ringNode forwards a token around the ring for a fixed number of hops.
type ringNode struct {
	n    int
	hops int
}

func (rn *ringNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	if r == 0 && ctx.ID() == 0 {
		return ctx.Send(1%core.NodeID(rn.n), 1)
	}
	for _, m := range inbox {
		hop := m.Payload
		if int(hop) >= rn.hops {
			return nil
		}
		next := (ctx.ID() + 1) % core.NodeID(rn.n)
		return ctx.Send(next, hop+1)
	}
	return nil
}

func TestRingToken(t *testing.T) {
	const n, hops = 16, 40
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &ringNode{n: n, hops: hops}
	}
	hooked := 0
	stats, err := RunOnce(nodes, Options{MaxRounds: hops + 8, RoundHook: func(RoundStats) { hooked++ }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMsgs != hops {
		t.Errorf("TotalMsgs = %d, want %d", stats.TotalMsgs, hops)
	}
	// hops send-rounds plus the final quiet round.
	if stats.Rounds != hops+1 {
		t.Errorf("Rounds = %d, want %d", stats.Rounds, hops+1)
	}
	if stats.TotalBytes != hops*core.WordBits/8 {
		t.Errorf("TotalBytes = %d, want %d", stats.TotalBytes, hops*core.WordBits/8)
	}
	if hooked != stats.Rounds {
		t.Errorf("RoundHook ran %d times, want %d", hooked, stats.Rounds)
	}
}

func TestMaxRounds(t *testing.T) {
	// Two nodes ping-pong forever; MaxRounds must stop them.
	nodes := []Node{
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
			return ctx.Send(1, uint64(r))
		}),
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error { return nil }),
	}
	stats, err := RunOnce(nodes, Options{MaxRounds: 12})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if stats.Rounds != 12 {
		t.Errorf("Rounds = %d, want 12", stats.Rounds)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	nodes := []Node{
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error { return nil }),
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
			if r == 2 {
				return boom
			}
			return ctx.Send(0, 0)
		}),
	}
	_, err := RunOnce(nodes, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestEmptyEngine(t *testing.T) {
	stats, err := RunOnce(nil, Options{})
	if err != nil || stats.Rounds != 0 {
		t.Fatalf("empty engine: stats=%+v err=%v", stats, err)
	}
}

// TestOptionsValidate: negative worker/round counts must be rejected at New with a descriptive error instead of
// slipping through to weird runtime behavior.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring the error must mention
	}{
		{"negative workers", Options{Workers: -3}, "Workers"},
		{"negative max rounds", Options{MaxRounds: -1}, "MaxRounds"},
	}
	for _, tc := range cases {
		if err := tc.opts.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.opts)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, err := New(4, tc.opts); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.opts)
		}
	}
	// The zero value and explicit sane values must still pass.
	for _, ok := range []Options{{}, {Workers: 2, MaxRounds: 10}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate rejected valid options %+v: %v", ok, err)
		}
	}
	if _, err := New(-1, Options{}); err == nil {
		t.Error("New accepted a negative clique size")
	}
}

// TestRunContextCancellation: a node set that never quiesces must be
// stopped at the round barrier by the context deadline, returning
// ctx.Err() with valid partial stats.
func TestRunContextCancellation(t *testing.T) {
	nodes := []Node{
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
			return ctx.Send(1, uint64(r))
		}),
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error { return nil }),
	}
	e, err := New(len(nodes), Options{MaxRounds: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	stats, err := e.Run(ctx, nodes)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if stats.Rounds == 0 {
		t.Error("no rounds executed before the deadline hit")
	}
	// A pre-cancelled context stops the run before round 0.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	stats, err = e.Run(pre, nodes)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if stats.Rounds != 0 {
		t.Errorf("pre-cancelled run executed %d rounds, want 0", stats.Rounds)
	}
	// The engine must stay usable after cancellation: a fresh run on
	// the same warm workers completes normally.
	done := []Node{
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
			if r == 0 {
				return ctx.Send(1, 42)
			}
			return nil
		}),
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
			for _, m := range inbox {
				if m.Payload != 42 {
					t.Errorf("stale payload %d leaked into the next run", m.Payload)
				}
			}
			return nil
		}),
	}
	stats, err = e.Run(context.Background(), done)
	if err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	if stats.TotalMsgs != 1 {
		t.Errorf("TotalMsgs = %d, want 1", stats.TotalMsgs)
	}
}

// TestEngineReuseMatchesFresh: repeated Run calls on one warm engine
// must produce the same results and stats as fresh engines, and a run
// after Close must fail with ErrClosed.
func TestEngineReuseMatchesFresh(t *testing.T) {
	const n, hops = 16, 40
	build := func() []Node {
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &ringNode{n: n, hops: hops}
		}
		return nodes
	}
	e, err := New(n, Options{MaxRounds: hops + 8})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		stats, err := e.Run(context.Background(), build())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if stats.TotalMsgs != hops || stats.Rounds != hops+1 {
			t.Fatalf("trial %d: msgs=%d rounds=%d, want %d/%d",
				trial, stats.TotalMsgs, stats.Rounds, hops, hops+1)
		}
	}
	e.Close()
	if _, err := e.Run(context.Background(), build()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestRoundHookStreams: the hook must observe every executed round, in
// order — one token hop per round, then the quiet round — and its
// per-round counts must add up to the run's totals.
func TestRoundHookStreams(t *testing.T) {
	const n, hops = 8, 12
	var seen []RoundStats
	opts := Options{
		MaxRounds: hops + 8,
		RoundHook: func(rs RoundStats) { seen = append(seen, rs) },
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &ringNode{n: n, hops: hops}
	}
	stats, err := RunOnce(nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != stats.Rounds {
		t.Fatalf("hook saw %d rounds, want %d", len(seen), stats.Rounds)
	}
	var msgs, bytes uint64
	for i, rs := range seen {
		want := uint64(1)
		if i == hops {
			want = 0
		}
		if rs.Round != core.Round(i) || rs.Msgs != want {
			t.Fatalf("hook round %d = %+v, want round %d with %d msgs", i, rs, i, want)
		}
		msgs += rs.Msgs
		bytes += rs.Bytes
	}
	if msgs != stats.TotalMsgs || bytes != stats.TotalBytes {
		t.Fatalf("hook sums msgs=%d bytes=%d, run totals msgs=%d bytes=%d", msgs, bytes, stats.TotalMsgs, stats.TotalBytes)
	}
}

// tokenRingNode is a deterministic handler whose behavior is a pure
// function of (round, inbox). Round 0 seeds one token per node; every
// later round forwards each token to the next node with a mixed
// payload, until round limit quiesces the system.
type tokenRingNode struct {
	id    core.NodeID
	limit core.Round
}

func (n *tokenRingNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	if r >= n.limit {
		return nil
	}
	if r == 0 {
		return ctx.Send(core.NodeID((int(n.id)+1)%ctx.NumNodes()), uint64(n.id)+1)
	}
	for _, m := range inbox {
		next := core.NodeID((int(n.id) + 1) % ctx.NumNodes())
		if err := ctx.Send(next, m.Payload*31+uint64(m.Src)+1); err != nil {
			return err
		}
	}
	return nil
}

func tokenRingNodes(n int, limit core.Round) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &tokenRingNode{id: core.NodeID(i), limit: limit}
	}
	return nodes
}

// TestRoundHookPanicSurfaced: a panicking RoundHook fails the run with
// ErrRoundHookPanic and leaves the engine usable — the regression test
// for hook panics wedging the barrier.
func TestRoundHookPanicSurfaced(t *testing.T) {
	const n = 4
	calls := 0
	e, err := New(n, Options{
		RoundHook: func(RoundStats) {
			calls++
			if calls == 2 {
				panic("hook boom")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.Run(context.Background(), tokenRingNodes(n, 6))
	if !errors.Is(err, ErrRoundHookPanic) {
		t.Fatalf("err = %v, want ErrRoundHookPanic", err)
	}

	// The engine must survive: a fresh run on the same engine completes.
	calls = -1 << 30
	if _, err := e.Run(context.Background(), tokenRingNodes(n, 3)); err != nil {
		t.Fatalf("run after hook panic: %v", err)
	}
}

// panicNode panics in a chosen round.
type panicNode struct {
	id core.NodeID
	at core.Round
}

func (p *panicNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	if r == p.at && p.id == 1 {
		panic("node boom")
	}
	if r < p.at+2 {
		return ctx.Send(core.NodeID((int(p.id)+1)%ctx.NumNodes()), 7)
	}
	return nil
}

// TestHandlerPanicSurfaced: a panicking node handler is recovered on
// the worker, surfaced as *HandlerPanicError with the node and round,
// and the warm engine survives to run the next node set.
func TestHandlerPanicSurfaced(t *testing.T) {
	const n = 6
	e, err := New(n, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &panicNode{id: core.NodeID(i), at: 2}
	}
	_, err = e.Run(context.Background(), nodes)
	var hp *HandlerPanicError
	if !errors.As(err, &hp) {
		t.Fatalf("err = %v, want *HandlerPanicError", err)
	}
	if hp.Node != 1 || hp.Round != 2 {
		t.Errorf("panic located at node %d round %d, want node 1 round 2", hp.Node, hp.Round)
	}
	if _, err := e.Run(context.Background(), tokenRingNodes(n, 3)); err != nil {
		t.Fatalf("run after handler panic: %v", err)
	}
}

// echoNode broadcasts a deterministic function of its inbox; used to
// check that inbox contents (including ordering) are identical across
// runs and worker counts.
type echoNode struct {
	n     int
	trace map[core.NodeID][]string
	mu    *sync.Mutex
}

func (en *echoNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	en.mu.Lock()
	en.trace[ctx.ID()] = append(en.trace[ctx.ID()], fmt.Sprint(r, inbox))
	en.mu.Unlock()
	if int(r) >= 4 {
		return nil
	}
	id := int(ctx.ID())
	for k := 1; k <= 3; k++ {
		dst := core.NodeID((id + k*7) % en.n)
		if dst == ctx.ID() {
			continue
		}
		if err := ctx.Send(dst, uint64(id*1000+int(r)*10+k)); err != nil {
			return err
		}
	}
	return nil
}

func runEcho(t *testing.T, n, workers int) map[core.NodeID][]string {
	t.Helper()
	var mu sync.Mutex
	trace := map[core.NodeID][]string{}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &echoNode{n: n, trace: trace, mu: &mu}
	}
	if _, err := RunOnce(nodes, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestDeterministicInboxOrder: because workers append in node-ID order
// and the scatter drains worker buffers in index order, inbox contents
// are a pure function of the algorithm — independent of scheduling and
// of the worker count.
func TestDeterministicInboxOrder(t *testing.T) {
	base := runEcho(t, 53, 1)
	for _, workers := range []int{2, 3, 8} {
		got := runEcho(t, 53, workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("inbox traces differ between 1 worker and %d workers", workers)
		}
	}
	again := runEcho(t, 53, 8)
	if !reflect.DeepEqual(base, again) {
		t.Fatal("inbox traces differ between identical runs")
	}
}
