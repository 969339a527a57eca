package engine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// tokenRingNode is a deterministic handler whose behavior is a pure function
// of (round, inbox) — exactly the property that makes an engine-level
// snapshot sufficient for resume: a fresh tokenRingNode continues a restored
// run identically. Round 0 seeds one token per node; every later round
// forwards each token to the next node with a mixed payload, until
// round limit quiesces the system.
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

// TestSnapshotRestoreEquivalence is the engine-level replay property:
// run to completion once for reference, then run the same system to a
// mid-run barrier, snapshot, serialize, restore into a *fresh* engine,
// finish — and require bit-identical per-round digests and identical
// cumulative message counts.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	const n, limit = 9, 12
	opts := Options{Workers: 3, RecordDigests: true}

	ref, err := New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refStats, err := ref.Run(context.Background(), tokenRingNodes(n, limit))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refDigests := ref.Digests()
	if len(refDigests) != refStats.Rounds {
		t.Fatalf("reference recorded %d digests over %d rounds", len(refDigests), refStats.Rounds)
	}

	for cut := 1; cut < refStats.Rounds; cut += 3 {
		e1, err := New(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e1.RunBounded(context.Background(), tokenRingNodes(n, limit), cut); !errors.Is(err, ErrMaxRounds) {
			e1.Close()
			t.Fatalf("cut=%d: bounded run err = %v, want ErrMaxRounds", cut, err)
		}
		snap, err := e1.Snapshot()
		e1.Close()
		if err != nil {
			t.Fatalf("cut=%d: Snapshot: %v", cut, err)
		}

		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			t.Fatalf("cut=%d: WriteTo: %v", cut, err)
		}
		loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("cut=%d: ReadSnapshot: %v", cut, err)
		}
		if !reflect.DeepEqual(normalizeSnap(snap), normalizeSnap(loaded)) {
			t.Fatalf("cut=%d: snapshot did not round-trip through serialization", cut)
		}

		// A different worker count exercises the sent-counter refold and
		// proves digests are schedule-independent.
		e2, err := New(n, Options{Workers: 2, RecordDigests: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := e2.RestoreSnapshot(loaded); err != nil {
			e2.Close()
			t.Fatalf("cut=%d: RestoreSnapshot: %v", cut, err)
		}
		stats, err := e2.Run(context.Background(), tokenRingNodes(n, limit))
		if err != nil {
			e2.Close()
			t.Fatalf("cut=%d: resumed run: %v", cut, err)
		}
		got := e2.Digests()
		e2.Close()
		if !reflect.DeepEqual(got, refDigests) {
			t.Fatalf("cut=%d: resumed digest chain diverged\n got %v\nwant %v", cut, got, refDigests)
		}
		if stats.Rounds != refStats.Rounds || stats.TotalMsgs != refStats.TotalMsgs {
			t.Fatalf("cut=%d: resumed totals (rounds=%d msgs=%d) != reference (rounds=%d msgs=%d)",
				cut, stats.Rounds, stats.TotalMsgs, refStats.Rounds, refStats.TotalMsgs)
		}
	}
}

// normalizeSnap maps empty and nil inbox slices to a canonical form so
// DeepEqual compares content, not allocation history.
func normalizeSnap(s *Snapshot) *Snapshot {
	c := *s
	c.Inbox = make([][]Message, len(s.Inbox))
	for i, box := range s.Inbox {
		if len(box) > 0 {
			c.Inbox[i] = box
		}
	}
	if len(c.Sent) == 0 {
		c.Sent = nil
	}
	if len(c.Digests) == 0 {
		c.Digests = nil
	}
	return &c
}

// TestRunBoundedAbsoluteAfterResume: after RestoreSnapshot, maxRounds
// is an absolute round number, so a resumed run bounded at the cut
// round executes zero further rounds.
func TestRunBoundedAbsoluteAfterResume(t *testing.T) {
	const n, limit = 5, 8
	e, err := New(n, Options{RecordDigests: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunBounded(context.Background(), tokenRingNodes(n, limit), 3); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	stats, err := e.RunBounded(context.Background(), tokenRingNodes(n, limit), 3)
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("resumed err = %v, want ErrMaxRounds at the same absolute bound", err)
	}
	if stats.Rounds != 3 || len(stats.PerRound) != 0 {
		t.Fatalf("resumed run executed %d new rounds (totals %d), want 0 (totals 3)", len(stats.PerRound), stats.Rounds)
	}
}

// TestRestoreMismatchRejected: snapshots only restore into engines of
// the same clique size and bandwidth budget.
func TestRestoreMismatchRejected(t *testing.T) {
	e, err := New(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other, err := New(5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.RestoreSnapshot(snap); err == nil {
		t.Error("restore into a differently sized engine succeeded")
	}

	fat, err := New(4, Options{Budget: core.Budget{BitsPerLink: 1024, MsgBits: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer fat.Close()
	if err := fat.RestoreSnapshot(snap); err == nil {
		t.Error("restore into a differently budgeted engine succeeded")
	}
}

// TestSnapshotClosedEngine: Snapshot and RestoreSnapshot on a closed
// engine fail with ErrClosed instead of touching a released engine.
func TestSnapshotClosedEngine(t *testing.T) {
	e, err := New(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Errorf("Snapshot after Close: err = %v, want ErrClosed", err)
	}
	if err := e.RestoreSnapshot(snap); !errors.Is(err, ErrClosed) {
		t.Errorf("RestoreSnapshot after Close: err = %v, want ErrClosed", err)
	}
}

// TestReadSnapshotRejectsGarbage: wrong magic, wrong version, and a
// truncated tail all fail with descriptive errors.
func TestReadSnapshotRejectsGarbage(t *testing.T) {
	e, err := New(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := ReadSnapshot(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("garbage magic accepted")
	}
	for _, cut := range []int{0, 8, len(full) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
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
