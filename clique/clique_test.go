package clique_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	_ "github.com/paper-repo-growth/doryp20/internal/matmul" // register matmul kernels
)

// chatterNode sends one word to its ring successor every round and so
// never quiesces — the adversarial kernel for cancellation tests.
type chatterNode struct{ n int }

func (c *chatterNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	return ctx.Send(core.NodeID((int(ctx.ID())+1)%c.n), uint64(r))
}

// chatterKernel wraps chatterNodes as a never-completing Kernel.
type chatterKernel struct{ built bool }

func (k *chatterKernel) Name() string { return "test-chatter" }

func (k *chatterKernel) Next(g *graph.CSR) (clique.Pass, error) {
	if k.built {
		return clique.Pass{}, nil
	}
	k.built = true
	nodes := make([]engine.Node, g.N)
	for i := range nodes {
		nodes[i] = &chatterNode{n: g.N}
	}
	return clique.Pass{Nodes: nodes}, nil
}

func (k *chatterKernel) Result() any { return nil }

// waitForGoroutines polls until the goroutine count drops back to at
// most base (workers unwind asynchronously after Close).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d running, want <= %d", runtime.NumGoroutine(), base)
}

// TestRunCancellationStopsMidRoundAndLeaksNothing: a kernel that never
// quiesces must be stopped by the context deadline at a round barrier,
// Session.Run must return ctx.Err(), and closing the session must
// release every worker goroutine.
func TestRunCancellationStopsMidRoundAndLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	g := graph.Clique(8)
	s, err := clique.New(g, clique.WithMaxRounds(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	err = s.Run(ctx, &chatterKernel{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
	// The deadline struck mid-run: rounds were executed, then stopped
	// long before the absurd MaxRounds bound.
	if st := s.Stats(); st.Runs != 1 || st.Engine.Rounds == 0 {
		t.Errorf("partial pass not billed: %+v", st)
	}
	if st := s.Stats(); st.Kernels != 0 {
		t.Errorf("cancelled kernel counted as completed: %+v", st)
	}

	// The session survives cancellation: the next kernel runs normally
	// on the same warm workers.
	dist, err2 := runBFS(s)
	if err2 != nil {
		t.Fatalf("kernel after cancellation: %v", err2)
	}
	if want := algo.BFSRef(g, 0); !reflect.DeepEqual(dist, want) {
		t.Errorf("post-cancellation BFS = %v, want %v", dist, want)
	}

	s.Close()
	s.Close() // idempotent
	waitForGoroutines(t, base)

	if err := s.Run(context.Background(), &chatterKernel{}); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Errorf("Run on closed session = %v, want closed error", err)
	}
}

func runBFS(s *clique.Session) ([]int64, error) {
	k := algo.NewBFSKernel(0)
	if err := s.Run(context.Background(), k); err != nil {
		return nil, err
	}
	return k.Dist(), nil
}

// TestInvalidOptionsRejectedAtNew: the session constructor must reject
// the option values engine.Options.Validate rejects.
func TestInvalidOptionsRejectedAtNew(t *testing.T) {
	g := graph.Path(4)
	cases := []struct {
		name string
		opt  clique.Option
	}{
		{"negative workers", clique.WithWorkers(-2)},
		{"negative max rounds", clique.WithMaxRounds(-7)},
		{"sub-word budget", clique.WithBudget(core.Budget{BitsPerLink: 8, MsgBits: 64})},
	}
	for _, tc := range cases {
		if _, err := clique.New(g, tc.opt); err == nil {
			t.Errorf("%s: New accepted invalid options", tc.name)
		}
	}
	if _, err := clique.New(nil); err == nil {
		t.Error("New accepted a nil graph")
	}
	if _, err := clique.NewSize(-1); err == nil {
		t.Error("NewSize accepted a negative size")
	}
}

// TestRoundHookStreamsAcrossKernels: WithRoundHook must observe every
// round of every pass of every kernel run on the session.
func TestRoundHookStreamsAcrossKernels(t *testing.T) {
	g := graph.RandomGNP(12, 0.3, 3).WithUniformRandomWeights(4, 5)
	var hookRounds int
	s, err := clique.New(g, clique.WithRoundHook(func(engine.RoundStats) { hookRounds++ }))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"bfs", "apsp"} {
		k, err := clique.NewKernel(name, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background(), k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if st := s.Stats(); hookRounds != st.Engine.Rounds {
		t.Errorf("hook saw %d rounds, cumulative stats say %d", hookRounds, st.Engine.Rounds)
	}
}

// TestSessionRejectsNilKernel and mismatched sessions.
func TestSessionRunErrors(t *testing.T) {
	s, err := clique.NewSize(4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background(), nil); err == nil {
		t.Error("nil kernel accepted")
	}
	// A graph-needing kernel on a graph-free session must explain itself.
	err = s.Run(context.Background(), algo.NewBFSKernel(0))
	if err == nil || !strings.Contains(err.Error(), "graph") {
		t.Errorf("graph-free session error = %v, want mention of graph", err)
	}
}

// TestExplicitMaxRoundsBeatsKernelHint: WithMaxRounds pins the bound,
// so a kernel whose pass needs more rounds fails with ErrMaxRounds
// instead of silently raising it.
func TestExplicitMaxRoundsBeatsKernelHint(t *testing.T) {
	// A clique's Bellman-Ford floods for ~3 rounds; bound it to 1.
	g := graph.Clique(6).WithUniformRandomWeights(2, 9)
	s, err := clique.New(g, clique.WithMaxRounds(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k, err := clique.NewKernel("apsp", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), k); !errors.Is(err, engine.ErrMaxRounds) {
		t.Fatalf("Run = %v, want ErrMaxRounds under an explicit 1-round bound", err)
	}
}

// gatherCounter is the in-process transport with its AllGatherRows
// calls counted and their slab shapes checked.
type gatherCounter struct {
	engine.Transport
	n, calls int
	badShape bool
}

func (g *gatherCounter) AllGatherRows(flat []int64, rowLen int) error {
	g.calls++
	g.badShape = g.badShape || rowLen < 1 || len(flat) != g.n*rowLen
	return g.Transport.AllGatherRows(flat, rowLen)
}

// TestSessionGathersEveryPass: every registered kernel hands the
// session its result rows with every pass, and the session all-gathers
// them once per pass — one well-shaped AllGatherRows call per engine
// pass, and none from the kernels themselves.
func TestSessionGathersEveryPass(t *testing.T) {
	g := graph.RandomGNPWeighted(24, 0.2, 9, 1)
	for _, name := range clique.Kernels() {
		tr := &gatherCounter{Transport: engine.NewMemTransport(), n: g.N}
		s, err := clique.New(g, clique.WithTransport(tr))
		if err != nil {
			t.Fatal(err)
		}
		k, err := clique.NewKernel(name, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background(), k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if runs := s.Stats().Runs; tr.calls != runs || tr.badShape {
			t.Errorf("%s: %d gathers (bad shape %v) over %d passes, want one well-shaped gather per pass", name, tr.calls, tr.badShape, runs)
		}
		s.Close()
	}
}
