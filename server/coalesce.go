package server

import (
	"context"
	"slices"
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
// RelaxKernel over the cached augmented adjacency (cache hit). ctx is
// the batch's context: it ends once every query in the batch has left.
type batchFunc func(ctx context.Context, sources []core.NodeID) (*batchResult, error)

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
// single-source approximate queries into batched kernel runs of up to
// maxBatch sources — k sources for the price of one pipeline, the
// ApproxKSourceKernel's headline amortization. One coalescer exists
// per (graph version, core.SigBitsFor(ε)).
//
// Protocol: every query appends itself to pending; the first query to
// find no active leader becomes one. The leader takes up to maxBatch
// pending queries at once, executes one batched run, delivers each
// query its row, and loops while queries keep arriving. Batches form by
// occupancy, with no timer: a query that finds the coalescer idle runs
// alone at once, and the queries admitted while a batch runs ride the
// next one, so batches grow with the kernel's own run time under load.
type coalescer struct {
	maxBatch int
	life     context.Context // every batch context derives from it
	waits    *histogram      // admission to batch formation, per query
	run      batchFunc

	mu      sync.Mutex
	pending []*waiter
	leading bool

	// runs and queries are the coalescer's own accounting, asserted by
	// the batching property tests.
	runs    uint64
	queries uint64
}

// waiter is one parked query: its source, the buffered channel its
// outcome is delivered on, when it was admitted, and — once the leader
// has taken it — the batch it rides in (guarded by coalescer.mu).
type waiter struct {
	src      core.NodeID
	ch       chan queryOutcome
	admitted time.Time
	batch    *batch
}

// batch is one formed batch's cancellation state: live counts the
// waiters still waiting for it (guarded by coalescer.mu), and cancel
// ends the batch's context when the last of them leaves.
type batch struct {
	live   int
	cancel context.CancelFunc
}

func newCoalescer(life context.Context, maxBatch int, waits *histogram, run batchFunc) *coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &coalescer{maxBatch: maxBatch, life: life, waits: waits, run: run}
}

// do admits one query and blocks until its batch completes or ctx is
// done. A query that leaves before its batch is formed is withdrawn and
// never computed; one that leaves a formed batch only stops that
// batch once every other query in it has left too.
func (c *coalescer) do(ctx context.Context, src core.NodeID) queryOutcome {
	w := &waiter{src: src, ch: make(chan queryOutcome, 1), admitted: time.Now()}
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
		c.leave(w)
		return queryOutcome{err: ctx.Err()}
	}
}

// leave withdraws w: from pending if its batch is not formed yet,
// otherwise from its batch, whose context ends with its last waiter.
// The handler's own goroutine calls it, so the batch is cancelled by
// the time the handler returns.
func (c *coalescer) leave(w *waiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := w.batch; b != nil {
		if b.live--; b.live == 0 {
			b.cancel()
		}
		return
	}
	if i := slices.Index(c.pending, w); i >= 0 {
		c.pending = slices.Delete(c.pending, i, i+1)
	}
}

// lead drains pending in batches of up to maxBatch until none remain,
// then retires. Exactly one leader exists at a time per coalescer.
func (c *coalescer) lead() {
	for {
		c.mu.Lock()
		k := min(len(c.pending), c.maxBatch)
		if k == 0 {
			c.leading = false
			c.mu.Unlock()
			return
		}
		ws := slices.Clone(c.pending[:k])
		c.pending = slices.Delete(c.pending, 0, k)
		ctx, cancel := context.WithCancel(c.life)
		b := &batch{live: k, cancel: cancel}
		formed := time.Now()
		sources := make([]core.NodeID, k)
		for i, w := range ws {
			w.batch = b
			c.waits.observe(formed.Sub(w.admitted))
			sources[i] = w.src
		}
		c.runs++
		c.mu.Unlock()

		res, err := c.run(ctx, sources)
		cancel()
		for i, w := range ws {
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
// ratio the property tests assert on.
func (c *coalescer) counts() (runs, queries uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs, c.queries
}
