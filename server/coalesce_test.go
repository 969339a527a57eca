package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// fakeBatcher is a batchFunc test double: it answers source s with the
// row [s*10] and records every batch it was asked to run, with the
// batch's context. While gate is open (non-nil and not closed), a run
// waits for it to close or for its context to end.
type fakeBatcher struct {
	mu      sync.Mutex
	batches [][]core.NodeID
	ctxs    []context.Context
	gate    chan struct{}
	err     error
}

func (f *fakeBatcher) run(ctx context.Context, sources []core.NodeID) (*batchResult, error) {
	f.mu.Lock()
	f.batches = append(f.batches, slices.Clone(sources))
	f.ctxs = append(f.ctxs, ctx)
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	rows := make([][]int64, len(sources))
	for i, s := range sources {
		rows[i] = []int64{int64(s) * 10}
	}
	return &batchResult{rows: rows, beta: 7, passes: 1, rounds: 3}, nil
}

// started returns how many runs have begun.
func (f *fakeBatcher) started() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.batches)
}

// batchCtx returns the context run i was given.
func (f *fakeBatcher) batchCtx(i int) context.Context {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ctxs[i]
}

// newTestCoalescer is a coalescer over fb with its own wait histogram.
func newTestCoalescer(maxBatch int, fb *fakeBatcher) *coalescer {
	return newCoalescer(context.Background(), maxBatch, &histogram{}, fb.run)
}

// admitted waits until c has admitted n queries.
func admitted(t *testing.T, c *coalescer, n uint64) {
	t.Helper()
	within(t, "queries admitted", func() bool { _, q := c.counts(); return q == n })
}

// TestCoalescerBatchesByOccupancy is the batching property at the unit
// level, with no timer: the first query runs alone at once; the k − 1
// queries admitted while it runs ride exactly ceil((k − 1)/maxBatch)
// further runs; and every query receives exactly its own row.
func TestCoalescerBatchesByOccupancy(t *testing.T) {
	const k, maxBatch = 20, 4
	fb := &fakeBatcher{gate: make(chan struct{})}
	c := newTestCoalescer(maxBatch, fb)

	var wg sync.WaitGroup
	outs := make([]queryOutcome, k)
	ask := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = c.do(context.Background(), core.NodeID(i))
		}()
	}
	ask(0)
	within(t, "batch 1 running", func() bool { return fb.started() == 1 })
	for i := 1; i < k; i++ {
		ask(i)
	}
	admitted(t, c, k)
	close(fb.gate)
	wg.Wait()

	runs, _ := c.counts()
	if want := uint64(1 + (k-1+maxBatch-1)/maxBatch); runs != want {
		t.Errorf("runs = %d, want 1 + ceil(%d/%d) = %d", runs, k-1, maxBatch, want)
	}
	for i, out := range outs {
		if out.err != nil {
			t.Fatalf("query %d: %v", i, out.err)
		}
		if len(out.dist) != 1 || out.dist[0] != int64(i)*10 {
			t.Errorf("query %d: dist = %v, want [%d]", i, out.dist, i*10)
		}
		if (i == 0 && out.batch != 1) || out.batch < 1 || out.batch > maxBatch {
			t.Errorf("query %d: batch size %d, want 1 for the first query and at most %d", i, out.batch, maxBatch)
		}
		if out.beta != 7 || out.passes != 1 || out.rounds != 3 {
			t.Errorf("query %d: telemetry (%d,%d,%d), want (7,1,3)", i, out.beta, out.passes, out.rounds)
		}
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	var sizes []int
	for _, b := range fb.batches {
		sizes = append(sizes, len(b))
	}
	if want := []int{1, 4, 4, 4, 4, 3}; !slices.Equal(sizes, want) {
		t.Errorf("batch sizes %v, want %v", sizes, want)
	}
	if got := histCount(c.waits); got != k {
		t.Errorf("coalesce-wait histogram holds %d samples, want one per query (%d)", got, k)
	}
}

// histCount is the number of samples in h.
func histCount(h *histogram) uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// TestCoalescerSequentialQueries checks the single-query path: each
// query gets its own run and batch size 1.
func TestCoalescerSequentialQueries(t *testing.T) {
	fb := &fakeBatcher{}
	c := newTestCoalescer(8, fb)
	for i := 0; i < 3; i++ {
		out := c.do(context.Background(), core.NodeID(i))
		if out.err != nil {
			t.Fatalf("query %d: %v", i, out.err)
		}
		if out.dist[0] != int64(i)*10 || out.batch != 1 {
			t.Errorf("query %d: dist %v in a batch of %d", i, out.dist, out.batch)
		}
	}
	runs, queries := c.counts()
	if queries != 3 || runs != 3 {
		t.Errorf("(runs, queries) = (%d, %d), want (3, 3)", runs, queries)
	}
}

// TestCoalescerErrorFansOut checks a failed batch delivers its error
// to every rider.
func TestCoalescerErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	fb := &fakeBatcher{gate: make(chan struct{}), err: boom}
	c := newTestCoalescer(8, fb)
	var wg sync.WaitGroup
	outs := make([]queryOutcome, 4)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = c.do(context.Background(), core.NodeID(i))
		}()
		if i == 0 {
			within(t, "batch 1 running", func() bool { return fb.started() == 1 })
		}
	}
	admitted(t, c, uint64(len(outs)))
	close(fb.gate)
	wg.Wait()
	for i, out := range outs {
		if !errors.Is(out.err, boom) {
			t.Errorf("query %d: err = %v, want the batch error", i, out.err)
		}
	}
	if runs, _ := c.counts(); runs != 2 {
		t.Errorf("runs = %d, want 2 (the three riders share one batch)", runs)
	}
}

// TestCoalescerWithdrawsAWaiterBeforeItsBatch: a query whose context
// ends while it is still pending returns its context error, is removed
// from pending and is never computed; the coalescer then serves the
// next query.
func TestCoalescerWithdrawsAWaiterBeforeItsBatch(t *testing.T) {
	fb := &fakeBatcher{gate: make(chan struct{})}
	c := newTestCoalescer(8, fb)
	first := make(chan queryOutcome, 1)
	go func() { first <- c.do(context.Background(), 1) }()
	within(t, "batch 1 running", func() bool { return fb.started() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan queryOutcome, 1)
	go func() { gone <- c.do(ctx, 2) }()
	admitted(t, c, 2)
	cancel()
	if out := <-gone; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("withdrawn query: err = %v, want context.Canceled", out.err)
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d queries still pending after the only waiter left", pending)
	}
	close(fb.gate)
	if out := <-first; out.err != nil || out.dist[0] != 10 {
		t.Fatalf("first query: %+v", out)
	}
	if out := c.do(context.Background(), 3); out.err != nil || out.dist[0] != 30 {
		t.Fatalf("next query: %+v", out)
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if want := [][]core.NodeID{{1}, {3}}; !slices.EqualFunc(fb.batches, want, slices.Equal) {
		t.Errorf("batches %v, want %v: the withdrawn source must never run", fb.batches, want)
	}
}

// TestCoalescerCancelsABatchOnceEveryWaiterLeft: a formed batch keeps
// its context while any of its waiters remains, and its context ends
// the moment the last one leaves, so the run stops.
func TestCoalescerCancelsABatchOnceEveryWaiterLeft(t *testing.T) {
	fb := &fakeBatcher{gate: make(chan struct{})}
	c := newTestCoalescer(8, fb)
	first := make(chan queryOutcome, 1)
	go func() { first <- c.do(context.Background(), 1) }()
	within(t, "batch 1 running", func() bool { return fb.started() == 1 })

	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	outs := make(chan queryOutcome, 2)
	go func() { outs <- c.do(ctxA, 2) }()
	go func() { outs <- c.do(ctxB, 3) }()
	admitted(t, c, 3)
	// Batch 1 ends with its query answered; batch 2 takes both waiters
	// and waits at the gate, which now never opens for it.
	fb.gate <- struct{}{}
	within(t, "batch 2 running", func() bool { return fb.started() == 2 })
	if out := <-first; out.err != nil {
		t.Fatal(out.err)
	}

	cancelA()
	if out := <-outs; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("first leaver: err = %v, want context.Canceled", out.err)
	}
	if err := fb.batchCtx(1).Err(); err != nil {
		t.Fatalf("batch context ended (%v) while a waiter remained", err)
	}
	cancelB()
	if out := <-outs; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("last leaver: err = %v, want context.Canceled", out.err)
	}
	if err := fb.batchCtx(1).Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch context after every waiter left: %v, want context.Canceled", err)
	}
	within(t, "leader retired", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return !c.leading
	})
}

// TestCoalescerContextCancel checks a query admitted with an already
// cancelled context returns its context error without wedging the
// leader: nothing is delivered to it, and a fresh query afterwards
// works.
func TestCoalescerContextCancel(t *testing.T) {
	fb := &fakeBatcher{}
	c := newTestCoalescer(8, fb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out := c.do(ctx, 0); !errors.Is(out.err, context.Canceled) || out.dist != nil {
		t.Fatalf("cancelled query: %+v, want context.Canceled and no row", out)
	}
	if out := c.do(context.Background(), 2); out.err != nil || out.dist[0] != 20 {
		t.Fatalf("post-cancel query: %+v", out)
	}
}
