package faults_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"syscall"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	_ "github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/faults"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	_ "github.com/paper-repo-growth/doryp20/internal/matmul"
)

// testGraph is the shared fixture: dense enough that every registered
// kernel runs multiple passes, small enough that the full sweep stays
// fast under -race.
func testGraph() *graph.CSR {
	return graph.RandomGNPWeighted(14, 0.3, 25, 42)
}

// resultsEqual compares kernel results. Hopsets are compared through
// their canonical serialization (their matrices embed semiring function
// values, which reflect.DeepEqual refuses to compare); everything else
// is plain data and DeepEqual applies.
func resultsEqual(a, b any) bool {
	ha, aok := a.(*hopset.Hopset)
	hb, bok := b.(*hopset.Hopset)
	if aok || bok {
		return aok && bok && bytes.Equal(encodeHopset(ha), encodeHopset(hb))
	}
	return reflect.DeepEqual(a, b)
}

// encodeHopset canonically serializes hs for comparison.
func encodeHopset(hs *hopset.Hopset) []byte {
	var buf bytes.Buffer
	w := ckptio.NewWriter(&buf)
	hopset.WriteHopset(w, hs)
	if w.Err() != nil {
		return nil
	}
	return buf.Bytes()
}

// checkpointableKernels returns the registered kernel names whose
// instances implement clique.Checkpointable.
func checkpointableKernels(t *testing.T, g *graph.CSR) []string {
	t.Helper()
	var names []string
	for _, name := range clique.Kernels() {
		k, err := clique.NewKernel(name, g)
		if err != nil {
			t.Fatalf("NewKernel(%q): %v", name, err)
		}
		if _, ok := k.(clique.Checkpointable); ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no registered kernel implements Checkpointable")
	}
	return names
}

// TestCheckpointableCoverage pins the set of kernels the crash/resume
// sweep exercises. A newly registered kernel must either implement
// clique.Checkpointable — in which case the sweep below picks it up
// automatically and this list grows — or be added here deliberately
// with a reason it cannot checkpoint. A mismatch in either direction
// fails: silent shrinkage of fault coverage is exactly the regression
// this test exists to catch.
func TestCheckpointableCoverage(t *testing.T) {
	got := checkpointableKernels(t, testGraph())
	want := []string{"approx-ksource", "approx-sssp", "apsp", "closure",
		"diameter-est", "diameter-est-approx", "hop-limited", "hopset",
		"ksource", "mst", "widest", "widest-ksource"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointable kernels = %v, want %v", got, want)
	}
}

// referenceRun is an uninterrupted, digest-recording run of a registered
// kernel: what every crashed-and-resumed run is held to.
type referenceRun struct {
	result  any
	stats   clique.Stats
	digests []uint64
}

func runReference(t *testing.T, g *graph.CSR, name string) referenceRun {
	t.Helper()
	ref, err := clique.New(g, clique.WithDigests())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	k, err := clique.NewKernel(name, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(context.Background(), k); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return referenceRun{result: k.Result(), stats: ref.Stats(), digests: ref.Digests()}
}

// crashAndResume runs the named kernel with a checkpoint at every pass
// boundary, kills pass crashPass with an injected handler fault in its
// round 0 — so the newest checkpoint is the boundary right before it —
// resumes a fresh kernel from that checkpoint on the surviving session,
// and requires results, digest chain, and traffic accounting
// bit-identical to the uninterrupted run.
func crashAndResume(t *testing.T, g *graph.CSR, name string, crashPass int, ref referenceRun) {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	sess, err := clique.New(g, clique.WithDigests(), clique.WithCheckpoint(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	kCrash, err := clique.NewKernel(name, g)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{FailEnabled: true, FailNode: 0, FailPass: crashPass, FailRound: 0}
	faults.Install(plan)
	err = sess.Run(ctx, kCrash)
	faults.Uninstall()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("crash run error = %v, want injected fault", err)
	}

	kResume, err := clique.NewKernel(name, g)
	if err != nil {
		t.Fatal(err)
	}
	path := clique.CheckpointPath(dir, name)
	if err := sess.Resume(ctx, kResume.(clique.Checkpointable), path); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !resultsEqual(kResume.Result(), ref.result) {
		t.Errorf("resumed result differs from uninterrupted run:\n resumed: %v\n reference: %v", kResume.Result(), ref.result)
	}
	if got := sess.Digests(); !reflect.DeepEqual(got, ref.digests) {
		t.Errorf("resumed digest chain differs: got %d digests %v, want %d %v", len(got), got, len(ref.digests), ref.digests)
	}
	st := sess.Stats()
	if st.Runs != ref.stats.Runs || st.Engine.Rounds != ref.stats.Engine.Rounds ||
		st.Engine.TotalMsgs != ref.stats.Engine.TotalMsgs || st.Engine.TotalBytes != ref.stats.Engine.TotalBytes {
		t.Errorf("resumed accounting differs: got %+v, want %+v", st, ref.stats)
	}
}

// TestCrashResumeEquivalence is the headline robustness property: for
// every registered Checkpointable kernel, a run killed by an injected
// handler fault in its final pass and resumed from its last checkpoint
// must produce results and per-round replay digest chains bit-identical
// to an uninterrupted run.
func TestCrashResumeEquivalence(t *testing.T) {
	g := testGraph()
	for _, name := range checkpointableKernels(t, g) {
		t.Run(name, func(t *testing.T) {
			ref := runReference(t, g, name)
			passes := ref.stats.Runs
			if passes < 2 {
				t.Fatalf("kernel %q completed in %d pass(es); crash/resume needs >= 2 — grow the fixture graph", name, passes)
			}
			crashAndResume(t, g, name, passes-1, ref)
		})
	}
}

// TestCrashAtEveryPassBoundary crashes three kernels built on the
// product loops after every pass boundary in turn; closure's boolean
// squarings, like apsp's (min,+) ones, checkpoint a base that Power
// holds only as the slab its last squaring left. The loops leave at
// the first product that changes nothing, and that verdict lives in the
// pass that just ran, not in the checkpoint: the kernel has to fold it
// into its state blob (a zeroed product budget, a collapsed exponent)
// at the very boundary it is reached, or the resumed run would run on.
// The fixture stops early in all three loops — hop products, relaxation
// and squaring — so each of those boundaries is among the ones swept.
func TestCrashAtEveryPassBoundary(t *testing.T) {
	g := graph.RandomGNPWeighted(24, 0.4, 4, 42)
	beta := hopset.DefaultBeta(g.N)
	hopPasses := runReference(t, g, "hopset").stats.Runs
	for name, allPasses := range map[string]int{"approx-ksource": 2 * beta, "apsp": 5, "closure": 5} {
		ref := runReference(t, g, name)
		passes := ref.stats.Runs
		if passes >= allPasses || hopPasses >= beta || (name == "approx-ksource" && passes-hopPasses >= beta) {
			t.Fatalf("%s ran %d passes (%d hop products, β = %d); the fixture must stop every loop early", name, passes, hopPasses, beta)
		}
		for crashPass := 1; crashPass < passes; crashPass++ {
			t.Run(fmt.Sprintf("%s/pass%d", name, crashPass), func(t *testing.T) {
				crashAndResume(t, g, name, crashPass, ref)
			})
		}
	}
}

// TestWorkerStallDeterminism stalls one worker goroutine in each phase
// and requires the run to produce the same digest chain as an
// unstalled run — barriers make stragglers invisible to the protocol.
func TestWorkerStallDeterminism(t *testing.T) {
	g := testGraph()
	ctx := context.Background()
	run := func() []uint64 {
		s, err := clique.New(g, clique.WithDigests(), clique.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		k, err := clique.NewKernel("apsp", g)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(ctx, k); err != nil {
			t.Fatal(err)
		}
		return s.Digests()
	}
	want := run()
	for phase := 0; phase <= 1; phase++ {
		faults.Install(&faults.Plan{StallWorker: 0, StallPhase: phase, StallFor: 2 * time.Millisecond})
		got := run()
		faults.Uninstall()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("digests with worker 0 stalled in phase %d differ from unstalled run", phase)
		}
	}
}

// TestCancellationAtBarrier cancels the context at a precise (pass,
// round) barrier and requires a clean context.Canceled from Run with
// the session still usable afterwards.
func TestCancellationAtBarrier(t *testing.T) {
	g := testGraph()
	s, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faults.Install(&faults.Plan{CancelPass: 1, CancelRound: 1, Cancel: cancel})
	k, err := clique.NewKernel("apsp", g)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(ctx, k)
	faults.Uninstall()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under injected cancellation = %v, want context.Canceled", err)
	}
	// The warm session survives cancellation.
	k2, err := clique.NewKernel("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), k2); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
}

// TestCheckpointWriteFailure exercises torn and disk-full checkpoint
// writes: the run fails with the underlying error, the previous
// checkpoint file stays byte-identical, and no temp file is left
// behind.
func TestCheckpointWriteFailure(t *testing.T) {
	g := testGraph()
	ctx := context.Background()
	cases := []struct {
		name string
		hook func(io.Writer) io.Writer
		want error
	}{
		{"disk-full", faults.DiskFull(100), syscall.ENOSPC},
		{"short-write", faults.ShortWrite(100), io.ErrShortWrite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := clique.New(g, clique.WithCheckpoint(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// A clean run first, leaving a good checkpoint behind.
			k, err := clique.NewKernel("apsp", g)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(ctx, k); err != nil {
				t.Fatal(err)
			}
			path := clique.CheckpointPath(dir, "apsp")
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no checkpoint after clean run: %v", err)
			}

			faults.Install(&faults.Plan{CheckpointWriter: tc.hook})
			k2, err := clique.NewKernel("apsp", g)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Run(ctx, k2)
			faults.Uninstall()
			if !errors.Is(err, tc.want) {
				t.Fatalf("run with failing checkpoint writes = %v, want %v", err, tc.want)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("previous checkpoint gone after failed write: %v", err)
			}
			if !reflect.DeepEqual(good, after) {
				t.Error("previous checkpoint was clobbered by a failed write")
			}
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("temp checkpoint file left behind (stat err %v)", err)
			}
		})
	}
}

// panicRoundNode panics in its round handler at a chosen round.
type panicRoundNode struct {
	id, n core.NodeID
	at    core.Round
}

// Round seeds one message to its successor, forwards it, and panics at
// the configured round on node 1.
func (n *panicRoundNode) Round(ctx *engine.Ctx, r core.Round, inbox []Message) error {
	if r == n.at && n.id == 1 {
		panic("kernel bug")
	}
	if r == 0 {
		return ctx.Send((n.id+1)%n.n, 7)
	}
	if r < n.at+2 && len(inbox) > 0 {
		return ctx.Send((n.id+1)%n.n, inbox[0].Payload+1)
	}
	return nil
}

// Message aliases the engine message type for the local test node.
type Message = engine.Message

// panicKernel is an unregistered kernel whose node handlers panic
// (mode "handler") or whose Next call panics (mode "nodes").
type panicKernel struct{ mode string }

// Name identifies the kernel in the error.
func (k *panicKernel) Name() string { return "panicky" }

// Next panics in mode "nodes", otherwise returns panicking handlers.
func (k *panicKernel) Next(g *graph.CSR) (clique.Pass, error) {
	if k.mode == "nodes" {
		panic("factory bug")
	}
	nodes := make([]engine.Node, g.N)
	for i := range nodes {
		nodes[i] = &panicRoundNode{id: core.NodeID(i), n: core.NodeID(g.N), at: 2}
	}
	return clique.Pass{Nodes: nodes}, nil
}

// Result is never reached.
func (k *panicKernel) Result() any { return nil }

// TestKernelPanicContained runs deliberately panicking kernels on a
// session and requires a typed *clique.KernelPanicError with the warm
// session intact. It lives here (not in package clique's tests) so the
// panicking kernel never enters the pinned kernel registry.
func TestKernelPanicContained(t *testing.T) {
	g := testGraph()
	s, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	for _, mode := range []string{"handler", "nodes"} {
		err := s.Run(ctx, &panicKernel{mode: mode})
		var kp *clique.KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("mode %s: Run = %v, want *KernelPanicError", mode, err)
		}
		if kp.Kernel != "panicky" {
			t.Errorf("mode %s: panic attributed to kernel %q", mode, kp.Kernel)
		}
		if mode == "handler" && (kp.Node != 1 || kp.Round != 2) {
			t.Errorf("handler panic located at node %d round %d, want node 1 round 2", kp.Node, kp.Round)
		}
		if mode == "nodes" && kp.Node != -1 {
			t.Errorf("nodes panic reported node %d, want -1", kp.Node)
		}
	}

	// The session survives both panics and runs real kernels.
	k, err := clique.NewKernel("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ctx, k); err != nil {
		t.Fatalf("run after kernel panics: %v", err)
	}
}

// TestStopResumeRoundTrip drives the SIGINT path programmatically:
// RequestStop ends the run with ErrStopped after a final checkpoint,
// and Resume completes it with results identical to an uninterrupted
// run.
func TestStopResumeRoundTrip(t *testing.T) {
	g := testGraph()
	ctx := context.Background()

	ref, err := clique.New(g, clique.WithDigests())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	kRef, err := clique.NewKernel("apsp", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx, kRef); err != nil {
		t.Fatal(err)
	}

	// RequestStop from a round hook — the same shape as a signal
	// handler interrupting a live run; Run itself clears any stop
	// request raised before it starts.
	dir := t.TempDir()
	var s *clique.Session
	stopArmed := true
	s, err = clique.New(g, clique.WithDigests(), clique.WithCheckpoint(dir),
		clique.WithRoundHook(func(engine.RoundStats) {
			if stopArmed {
				s.RequestStop()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k, err := clique.NewKernel("apsp", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ctx, k); !errors.Is(err, clique.ErrStopped) {
		t.Fatalf("Run after RequestStop = %v, want ErrStopped", err)
	}

	stopArmed = false
	kResume, err := clique.NewKernel("apsp", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(ctx, kResume.(clique.Checkpointable), clique.CheckpointPath(dir, "apsp")); err != nil {
		t.Fatalf("Resume after stop: %v", err)
	}
	if !reflect.DeepEqual(kResume.Result(), kRef.Result()) {
		t.Error("stop/resume result differs from uninterrupted run")
	}
	if !reflect.DeepEqual(s.Digests(), ref.Digests()) {
		t.Error("stop/resume digest chain differs from uninterrupted run")
	}
}
