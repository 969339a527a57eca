package server

import (
	"context"
	"sync"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// batchResult is what one coalesced kernel run returns: a distance row
// per batch source (rows[i] answers sources[i]) plus the run's serving
// telemetry, shared by every query in the batch.
type batchResult struct {
	rows     [][]int64
	beta     int
	cacheHit bool
	passes   int
	rounds   int
	wall     time.Duration
}

// batchFunc executes one batched kernel run for the coalescer — in the
// daemon it acquires the graph's session lease, consults the hopset
// cache, and runs either an ApproxKSourceKernel (cache miss) or a
// RelaxKernel over the cached augmented adjacency (cache hit).
type batchFunc func(sources []core.NodeID) (*batchResult, error)

// queryOutcome is one query's share of a batch outcome.
type queryOutcome struct {
	dist     []int64
	beta     int
	batch    int
	cacheHit bool
	passes   int
	rounds   int
	wall     time.Duration
	err      error
}

// coalescer is the admission-control layer that turns k concurrent
// single-source approximate queries into ceil(k/maxBatch) batched
// kernel runs — k sources for the price of one pipeline, the
// ApproxKSourceKernel's headline amortization. One coalescer exists
// per (graph version, core.SigBitsFor(ε)).
//
// Protocol: every query appends itself to pending; the first query to
// find no active leader becomes one. The leader sleeps the admission
// window (wait), takes up to maxBatch pending queries, executes one
// batched run, delivers each query its row, and loops while queries
// keep arriving — queries admitted while a batch runs simply ride the
// next one. The window is the coalescing knob: 0 serves the first
// query alone at minimum latency, a few milliseconds trades that
// latency for batching under concurrent load.
type coalescer struct {
	maxBatch int
	wait     time.Duration
	run      batchFunc

	mu      sync.Mutex
	pending []waiter
	leading bool

	// runs and queries are the coalescer's own accounting, asserted by
	// the batching property tests: runs <= ceil(queries/maxBatch) when
	// all queries are admitted inside one window.
	runs    uint64
	queries uint64
}

// waiter is one parked query: its source and the buffered channel its
// outcome is delivered on.
type waiter struct {
	src core.NodeID
	ch  chan queryOutcome
}

func newCoalescer(maxBatch int, wait time.Duration, run batchFunc) *coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &coalescer{maxBatch: maxBatch, wait: wait, run: run}
}

// do admits one query and blocks until its batch completes or ctx is
// done. A context-abandoned query is still computed with its batch
// (retraction would complicate the protocol for no serving win); only
// the delivery is skipped.
func (c *coalescer) do(ctx context.Context, src core.NodeID) queryOutcome {
	w := waiter{src: src, ch: make(chan queryOutcome, 1)}
	c.mu.Lock()
	c.pending = append(c.pending, w)
	c.queries++
	if !c.leading {
		c.leading = true
		go c.lead()
	}
	c.mu.Unlock()

	select {
	case out := <-w.ch:
		return out
	case <-ctx.Done():
		return queryOutcome{err: ctx.Err()}
	}
}

// lead drains pending in batches of up to maxBatch until none remain,
// then retires. Exactly one leader exists at a time per coalescer.
func (c *coalescer) lead() {
	for {
		if c.wait > 0 {
			time.Sleep(c.wait)
		}
		c.mu.Lock()
		k := len(c.pending)
		if k == 0 {
			c.leading = false
			c.mu.Unlock()
			return
		}
		if k > c.maxBatch {
			k = c.maxBatch
		}
		batch := make([]waiter, k)
		copy(batch, c.pending[:k])
		c.pending = append(c.pending[:0], c.pending[k:]...)
		c.runs++
		c.mu.Unlock()

		sources := make([]core.NodeID, k)
		for i, w := range batch {
			sources[i] = w.src
		}
		res, err := c.run(sources)
		for i, w := range batch {
			if err != nil {
				w.ch <- queryOutcome{err: err}
				continue
			}
			w.ch <- queryOutcome{
				dist: res.rows[i], beta: res.beta, batch: k,
				cacheHit: res.cacheHit, passes: res.passes, rounds: res.rounds, wall: res.wall,
			}
		}
	}
}

// counts returns (kernel runs, admitted queries) — the coalescing
// ratio the property tests and /stats assert on.
func (c *coalescer) counts() (runs, queries uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs, c.queries
}
