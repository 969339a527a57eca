// Package engine is a synchronous round-based Congested Clique
// simulator engineered for throughput. Nodes implement the Node
// interface; the engine runs all round handlers in parallel across a
// fixed pool of persistent worker goroutines with a barrier between
// rounds, routes messages through a double-buffered, zero-allocation
// router that writes each word once (see router.go), enforces the
// model's O(log n)-bit per-link bandwidth budget, and streams per-round
// stats to an optional hook.
//
// An Engine is reusable: New sizes it for a clique of n nodes, each
// Run(ctx, nodes) executes one node set to quiescence, and the worker
// pool, router boxes, and bandwidth counters stay warm across runs.
// The clique package (the public session API) layers kernel dispatch
// and cumulative accounting on top of exactly this reuse. Close
// releases the workers; RunOnce bundles New/Run/Close for single-shot
// callers.
//
// The Outbox helper (outbox.go) layers balanced, budget-paced
// all-to-all exchange on top of Ctx.Send: queue any multiset of
// (destination, word) messages and flush them over as many rounds as
// the per-link cap requires. See docs/architecture.md for the message
// lifecycle and the exact point where the budget is enforced.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/trace"
)

// Node is one clique participant. Round is invoked exactly once per
// synchronous round with the messages addressed to this node in the
// previous round; messages sent via ctx are delivered at the start of
// the next round. A handler runs on a single goroutine but concurrently
// with other nodes' handlers, so it must not touch other nodes' state.
type Node interface {
	Round(ctx *Ctx, r core.Round, inbox []Message) error
}

// Options configures an Engine. The zero value selects sensible
// defaults: GOMAXPROCS workers, the canonical one-word-per-link budget,
// and a MaxRounds of 4n+64.
type Options struct {
	// Workers is the number of scheduler workers (and router shards).
	// Defaults to runtime.GOMAXPROCS(0), clamped to n. Negative values
	// are rejected by Validate/New.
	Workers int
	// MaxRounds bounds each run; Run returns ErrMaxRounds if the
	// system has not quiesced by then. Defaults to 4n+64. Negative
	// values are rejected by Validate/New.
	MaxRounds int
	// Budget is the per-link bandwidth allowance. The zero value means
	// core.DefaultBudget(n); any other value must be able to carry at
	// least one whole message (BitsPerLink >= MsgBits >= 1) or
	// Validate/New rejects it.
	Budget core.Budget
	// RoundHook, when non-nil, is invoked synchronously from the run
	// loop after every executed round (including the final quiet one)
	// with that round's stats — the streaming-observability tap the
	// clique session API exposes via WithRoundHook. It must not call
	// back into the engine. A panicking hook does not wedge the run: the
	// panic is recovered and surfaced as the run's error
	// (ErrRoundHookPanic).
	RoundHook func(RoundStats)
	// RecordDigests enables deterministic-replay verification: after
	// every round the engine folds the freshly scattered inbox bank —
	// every (destination, source, payload) triple in the router's
	// deterministic delivery order — into a chained per-round FNV-1a
	// digest, exposed via RoundStats.Digest and Engine.Digests.
	// Two runs are bit-identical exactly when their digest sequences
	// match. Off by default: the round loop then pays a single branch
	// and never touches the delivered messages.
	RecordDigests bool
	// Trace, when non-nil, receives per-round spans — one whole-round
	// envelope plus the compute/scatter/exchange phase breakdown — into
	// its ring buffer. Nil (the default) disables tracing at the cost of
	// one nil check per round, the same discipline as testHooks; span
	// recording never allocates either way. Enabling Trace additionally
	// turns on per-worker barrier-wait sampling (RoundStats.BarrierWait).
	Trace *trace.Recorder
	// Transport selects the fabric that completes each round's
	// all-to-all exchange (see transport.go). Nil selects the
	// in-process MemTransport — the zero-allocation box scatter. A
	// multi-rank transport (SocketTransport) makes this engine one
	// rank of a larger logical clique: it executes only the
	// transport's Partition of the node set and exchanges round frames
	// with its peers. The engine takes ownership: Close closes the
	// transport.
	Transport Transport
}

// Validate rejects option values that would otherwise slip through to
// confusing runtime behavior: negative worker or round counts, and
// non-default budgets too small to carry a single message word.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("engine: Options.Workers %d is negative (0 selects the GOMAXPROCS default)", o.Workers)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("engine: Options.MaxRounds %d is negative (0 selects the 4n+64 default)", o.MaxRounds)
	}
	if o.Budget != (core.Budget{}) {
		if o.Budget.MsgBits < 1 {
			return fmt.Errorf("engine: Options.Budget.MsgBits %d cannot frame a message (want >= 1, or the zero Budget for the default)", o.Budget.MsgBits)
		}
		if o.Budget.BitsPerLink < o.Budget.MsgBits {
			return fmt.Errorf("engine: Options.Budget allows %d bits per link, below one %d-bit message word", o.Budget.BitsPerLink, o.Budget.MsgBits)
		}
	}
	return nil
}

// ErrMaxRounds is returned by Run when MaxRounds elapse before the
// system quiesces (a round in which no node sends any message).
var ErrMaxRounds = errors.New("engine: MaxRounds reached before quiescence")

// ErrClosed is returned by Run after Close has released the engine.
var ErrClosed = errors.New("engine: Run on a closed Engine")

// ErrRoundHookPanic wraps a panic recovered from Options.RoundHook: the
// run stops at the barrier with this error instead of wedging the
// worker pool, and the engine stays usable for further runs.
var ErrRoundHookPanic = errors.New("engine: RoundHook panicked")

// HandlerPanicError reports a node handler (Node.Round) that panicked.
// The run loop recovers it on the worker, releases the phase barrier
// normally, and returns it from Run — one misbehaving node set cannot
// take down the shared worker pool, so a warm engine (and the clique
// session above it) survives to run the next kernel.
type HandlerPanicError struct {
	// Node is the handler that panicked.
	Node core.NodeID
	// Round is the round it panicked in.
	Round core.Round
	// Value is the recovered panic value.
	Value any
}

// Error formats the panicking node, round, and panic value.
func (e *HandlerPanicError) Error() string {
	return fmt.Sprintf("engine: node %d panicked in round %d: %v", e.Node, e.Round, e.Value)
}

// RoundStats records one executed round.
type RoundStats struct {
	Round core.Round
	Msgs  uint64
	Bytes uint64
	Wall  time.Duration
	// Compute is phase A: all local node handlers dispatched to the
	// worker pool, up to the phase barrier.
	Compute time.Duration
	// Exchange is phase B: the transport completing the round — the
	// in-process box scatter, or a socket transport's frame exchange.
	Exchange time.Duration
	// Scatter is the in-process parallel-scatter portion of Exchange
	// (equal to nearly all of it on MemTransport, the local share on a
	// socket transport that scatters after its frame exchange).
	Scatter time.Duration
	// BarrierWait is the mean per-worker idle time at the phase-A
	// barrier — the load-imbalance signal: compute time is wasted when
	// most workers finish their node range early and wait for the
	// slowest. Measured only when Options.Trace is set, 0 otherwise.
	BarrierWait time.Duration
	// Digest is the chained FNV-1a replay digest of the round's
	// delivered traffic when Options.RecordDigests is set, 0 otherwise.
	// See Options.RecordDigests for the exact bytes folded.
	Digest uint64
}

// Stats aggregates an entire run. Its JSON tags are the repository's
// one stable shape — {"rounds","msgs","bytes","wall_ns"}, the wall clock
// in integer nanoseconds — shared by ccbench kernel reports and
// ccserve's /stats responses.
type Stats struct {
	Rounds     int           `json:"rounds"`
	TotalMsgs  uint64        `json:"msgs"`
	TotalBytes uint64        `json:"bytes"`
	Wall       time.Duration `json:"wall_ns"`
}

// workerCmd sequences the two parallel phases of a round.
type workerCmd uint8

const (
	cmdRunNodes workerCmd = iota
	cmdScatter
)

// Engine runs node sets under the Congested Clique round model. It is
// sized for a fixed clique of n nodes at New and may execute any number
// of sequential Run calls (each with its own node set) before Close;
// the worker goroutines, router boxes, and inbox banks are reused
// across runs. An Engine is not safe for concurrent use.
type Engine struct {
	n       int
	opts    Options
	workers int
	rt      *router
	lo, hi  []int // node ranges per worker
	errs    []error
	nodes   []Node
	round   core.Round

	// transport completes each round's exchange; binding is the
	// engine-side surface it drives. partLo/partHi is the local node
	// range the transport assigned this engine.
	transport      Transport
	binding        *Binding
	partLo, partHi int

	cmds    []chan workerCmd
	barrier sync.WaitGroup
	started bool
	closed  bool

	// Phase-timing scratch. doneAt[w] is worker w's phase-A finish
	// stamp, written by the worker and read by the run loop strictly
	// after the barrier — no lock needed. scatterAt/scatterDur time the
	// in-process parallel scatter, written inside the transport's
	// Exchange (via Binding.ParallelScatter) and read after it returns.
	doneAt     []time.Time
	scatterAt  time.Time
	scatterDur time.Duration

	// Replay-digest chain of the current run (RecordDigests only):
	// digests[r] summarizes rounds 0..r, lastDigest is the chain head.
	digests    []uint64
	lastDigest uint64
}

// New builds an engine for a clique of n nodes after validating opts.
// Worker goroutines are spawned lazily on the first Run, so an Engine
// that never runs holds no resources beyond memory; after the first Run
// the pool stays warm until Close.
func New(n int, opts Options) (*Engine, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative clique size %d", n)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers > n && n > 0 {
		opts.Workers = n
	}
	if n == 0 {
		opts.Workers = 1
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 4*n + 64
	}
	if opts.Budget == (core.Budget{}) {
		opts.Budget = core.DefaultBudget(n)
	}
	tr := opts.Transport
	if tr == nil {
		tr = NewMemTransport()
	}
	partLo, partHi := tr.Partition(n)
	if partLo < 0 || partHi < partLo || partHi > n {
		return nil, fmt.Errorf("engine: transport %s partition [%d, %d) outside [0, %d)", tr.Name(), partLo, partHi, n)
	}
	w := opts.Workers
	e := &Engine{
		n:         n,
		opts:      opts,
		workers:   w,
		rt:        newRouter(n, w, w, opts.Budget),
		lo:        make([]int, w),
		hi:        make([]int, w),
		errs:      make([]error, w),
		cmds:      make([]chan workerCmd, w),
		doneAt:    make([]time.Time, w),
		transport: tr,
		partLo:    partLo,
		partHi:    partHi,
	}
	for i := 0; i < w; i++ {
		// Contiguous node ranges over the transport's local partition,
		// in the same ceil split as the router's shard bounds — for the
		// full partition [0, n) (MemTransport) worker i's range is
		// exactly shard i, and handlers always run nodes in ID order.
		local := partHi - partLo
		e.lo[i] = partLo + (i*local+w-1)/w
		e.hi[i] = partLo + ((i+1)*local+w-1)/w
	}
	e.binding = &Binding{e: e}
	if err := tr.Bind(e.binding); err != nil {
		return nil, fmt.Errorf("engine: binding transport %s: %w", tr.Name(), err)
	}
	return e, nil
}

// Transport returns the engine's bound transport, whose AllGatherRows
// the clique session uses to synchronize a pass's result rows across
// ranks.
func (e *Engine) Transport() Transport { return e.transport }

// Partition returns the contiguous local node range [lo, hi) this
// engine executes — all of [0, n) for the in-process transport, one
// rank's shard otherwise.
func (e *Engine) Partition() (lo, hi int) { return e.partLo, e.partHi }

// NumNodes returns the clique size the engine was built for.
func (e *Engine) NumNodes() int { return e.n }

// Digests returns a copy of the chained per-round replay digests of the
// current (or most recent) run; empty unless Options.RecordDigests.
func (e *Engine) Digests() []uint64 { return append([]uint64(nil), e.digests...) }

// Budget returns the per-link bandwidth budget the engine enforces
// (after defaulting) — checkpoint headers record it so a resume onto a
// differently-budgeted session is rejected instead of silently
// replaying a different schedule.
func (e *Engine) Budget() core.Budget { return e.opts.Budget }

// start spawns the persistent workers: one buffered command channel
// each, a shared WaitGroup as the phase barrier. No goroutine spawns
// and no channel allocations happen inside the round loop.
func (e *Engine) start() {
	for w := 0; w < e.workers; w++ {
		e.cmds[w] = make(chan workerCmd, 1)
		go func(w int) {
			for cmd := range e.cmds[w] {
				if h := testHooks; h != nil && h.WorkerPhase != nil {
					h.WorkerPhase(w, int(cmd))
				}
				switch cmd {
				case cmdRunNodes:
					e.runNodes(w)
					// Barrier-wait sampling: stamp after the handlers
					// (including the panic-recovered path) so the run
					// loop can compute this worker's idle time at the
					// barrier. Gated on tracing — one nil check.
					if e.opts.Trace != nil {
						e.doneAt[w] = time.Now()
					}
				case cmdScatter:
					e.rt.scatterShard(w)
				}
				e.barrier.Done()
			}
		}(w)
	}
	e.started = true
}

// Close shuts down the worker pool and closes the bound transport. The
// engine must not be used afterwards; Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.started {
		for _, ch := range e.cmds {
			close(ch)
		}
	}
	if e.transport != nil {
		e.transport.Close() //nolint:errcheck // teardown is best-effort
	}
}

// parallelScatter runs phase B on the worker pool: shard s is
// scattered by worker s. Exposed to transports via Binding.
func (e *Engine) parallelScatter() {
	e.scatterAt = time.Now()
	e.barrier.Add(e.workers)
	for _, ch := range e.cmds {
		ch <- cmdScatter
	}
	e.barrier.Wait()
	e.scatterDur = time.Since(e.scatterAt)
}

// runNodes executes phase A for worker w: invoke every owned node's
// handler for the current round. A handler panic is recovered here — on
// the worker, before the phase barrier is released — and surfaced as a
// *HandlerPanicError run error, so a panicking kernel can never wedge
// the pool mid-barrier.
func (e *Engine) runNodes(w int) {
	ctx := e.rt.ctxs[w]
	r := e.round
	defer func() {
		if p := recover(); p != nil {
			e.errs[w] = &HandlerPanicError{Node: ctx.src, Round: r, Value: p}
		}
	}()
	hooks := testHooks
	for id := e.lo[w]; id < e.hi[w]; id++ {
		ctx.bind(core.NodeID(id))
		if hooks != nil && hooks.NodeError != nil {
			if err := hooks.NodeError(core.NodeID(id), r); err != nil {
				e.errs[w] = fmt.Errorf("node %d round %d: %w", id, r, err)
				return
			}
		}
		if err := e.nodes[id].Round(ctx, r, e.rt.inbox[id]); err != nil {
			e.errs[w] = fmt.Errorf("node %d round %d: %w", id, r, err)
			return
		}
	}
}

// callRoundHook invokes the configured RoundHook with panic recovery,
// converting a hook panic into an ErrRoundHookPanic run error.
func (e *Engine) callRoundHook(rs RoundStats) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w at round %d: %v", ErrRoundHookPanic, rs.Round, p)
		}
	}()
	e.opts.RoundHook(rs)
	return nil
}

// digestSeed is the initial value of the per-run replay digest chain.
const digestSeed = ckptio.FNVOffset

// fnv1aWord folds one 64-bit word into a running FNV-1a hash,
// little-endian byte order, without allocating.
func fnv1aWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// foldInboxDigest chains the freshly scattered inbox bank into the
// replay digest: for every destination in ID order, the destination,
// its message count, and each (source, payload) pair in the router's
// deterministic delivery order. Allocation-free; called once per round
// and only when RecordDigests is set.
func (e *Engine) foldInboxDigest() uint64 {
	h := e.lastDigest
	for d := 0; d < e.n; d++ {
		box := e.rt.inbox[d]
		h = fnv1aWord(h, uint64(d))
		h = fnv1aWord(h, uint64(len(box)))
		for i := range box {
			h = fnv1aWord(h, uint64(box[i].Src))
			h = fnv1aWord(h, box[i].Payload)
		}
	}
	return h
}

// Run executes one node set from round 0 until quiescence (a round in
// which zero messages are sent), a node handler error, context
// cancellation, or MaxRounds (ErrMaxRounds). len(nodes) must equal the
// clique size the engine was built for; nodes[i] handles NodeID i.
//
// Cancellation is observed at the round barrier: the deadline or cancel
// of ctx stops the run before the next round starts and Run returns
// ctx.Err(). Handlers are never interrupted mid-round — the model is
// synchronous — so a cancelled run leaves the engine in a clean
// between-rounds state, ready for the next Run.
//
// The returned Stats are valid in all cases and cover every executed
// round of this run.
func (e *Engine) Run(ctx context.Context, nodes []Node) (*Stats, error) {
	return e.RunBounded(ctx, nodes, 0)
}

// RunBounded is Run with a per-run round bound: maxRounds > 0 overrides
// Options.MaxRounds for this run only (kernels with wide streaming
// phases raise it through the clique session's Pass.MaxRounds);
// maxRounds <= 0 keeps the configured value.
func (e *Engine) RunBounded(ctx context.Context, nodes []Node, maxRounds int) (*Stats, error) {
	stats := &Stats{}
	if e.closed {
		return stats, ErrClosed
	}
	if len(nodes) != e.n {
		return stats, fmt.Errorf("engine: %d nodes for a clique sized %d", len(nodes), e.n)
	}
	if maxRounds <= 0 {
		maxRounds = e.opts.MaxRounds
	}
	if e.n == 0 {
		return stats, nil
	}

	// Rewind to a pristine round 0: clear any state a previous run left
	// behind (stale inbox banks or queued words from an error or a
	// cancelled run), reset the per-worker send counters, and restart
	// the digest chain. Box and inbox capacity is retained, so reuse
	// stays allocation-free in steady state.
	e.round = 0
	e.rt.reset()
	for _, c := range e.rt.ctxs {
		c.sent = 0
	}
	e.digests = e.digests[:0]
	e.lastDigest = digestSeed
	e.nodes = nodes
	for i := range e.errs {
		e.errs[i] = nil
	}
	if !e.started {
		e.start()
	}
	defer func() { e.nodes = nil }()

	runStart := time.Now()
	var prevSent uint64
	for int(e.round) < maxRounds {
		if h := testHooks; h != nil && h.BarrierEnter != nil {
			h.BarrierEnter(e.round)
		}
		if err := ctx.Err(); err != nil {
			// A cancelled rank must not leave peers blocked in their
			// exchange: tear the round down loudly before returning.
			e.transport.Abort(err)
			stats.Wall = time.Since(runStart)
			return stats, err
		}
		t0 := time.Now()

		// Phase A: all locally-owned round handlers in parallel.
		e.barrier.Add(e.workers)
		for _, ch := range e.cmds {
			ch <- cmdRunNodes
		}
		e.barrier.Wait()
		tA := time.Now()
		for _, err := range e.errs {
			if err != nil {
				e.transport.Abort(err)
				stats.Wall = time.Since(runStart)
				return stats, err
			}
		}

		// Phase B: the transport completes the round — the in-process
		// transport scatters the boxes in parallel (shard s by worker
		// s); a multi-rank transport exchanges round frames with its
		// peers. Either way the inbox banks are swapped and the global
		// message count comes back, so quiescence is a cluster-wide
		// event every rank observes on the same round.
		var sentTotal uint64
		for _, c := range e.rt.ctxs {
			sentTotal += c.sent
		}
		localMsgs := sentTotal - prevSent
		prevSent = sentTotal
		e.scatterAt, e.scatterDur = time.Time{}, 0
		tX := time.Now()
		roundMsgs, xerr := e.transport.Exchange(e.round, localMsgs)
		if xerr != nil {
			e.transport.Abort(xerr)
			stats.Wall = time.Since(runStart)
			return stats, xerr
		}

		tEnd := time.Now()
		rs := RoundStats{
			Round:    e.round,
			Msgs:     roundMsgs,
			Bytes:    roundMsgs * uint64(e.opts.Budget.MsgBits) / 8,
			Wall:     tEnd.Sub(t0),
			Compute:  tA.Sub(t0),
			Exchange: tEnd.Sub(tX),
			Scatter:  e.scatterDur,
		}
		if tr := e.opts.Trace; tr != nil {
			// Mean worker idle at the phase-A barrier: how much compute
			// time load imbalance wasted this round. doneAt was stamped
			// by each worker before it released the barrier.
			var idle time.Duration
			for _, d := range e.doneAt {
				if !d.IsZero() && d.Before(tA) {
					idle += tA.Sub(d)
				}
			}
			rs.BarrierWait = idle / time.Duration(e.workers)
			round := int64(e.round)
			tr.Record(trace.Span{Name: trace.NameRound, Cat: trace.CatRound, Lane: trace.LaneRounds,
				Start: tr.Since(t0), Dur: int64(rs.Wall), Round: round, Arg: rs.Msgs})
			tr.Record(trace.Span{Name: trace.NameCompute, Cat: trace.CatPhase, Lane: trace.LanePhases,
				Start: tr.Since(t0), Dur: int64(rs.Compute), Round: round, Arg: uint64(rs.BarrierWait)})
			tr.Record(trace.Span{Name: trace.NameExchange, Cat: trace.CatPhase, Lane: trace.LanePhases,
				Start: tr.Since(tX), Dur: int64(rs.Exchange), Round: round})
			if !e.scatterAt.IsZero() {
				tr.Record(trace.Span{Name: trace.NameScatter, Cat: trace.CatPhase, Lane: trace.LanePhases,
					Start: tr.Since(e.scatterAt), Dur: int64(rs.Scatter), Round: round})
			}
		}
		if e.opts.RecordDigests {
			e.lastDigest = e.foldInboxDigest()
			e.digests = append(e.digests, e.lastDigest)
			rs.Digest = e.lastDigest
		}
		e.round++
		stats.Rounds++
		stats.TotalMsgs += rs.Msgs
		stats.TotalBytes += rs.Bytes
		if e.opts.RoundHook != nil {
			if err := e.callRoundHook(rs); err != nil {
				e.transport.Abort(err)
				stats.Wall = time.Since(runStart)
				return stats, err
			}
		}

		if roundMsgs == 0 {
			stats.Wall = time.Since(runStart)
			return stats, nil
		}
	}
	stats.Wall = time.Since(runStart)
	return stats, ErrMaxRounds
}

// RunOnce builds a single-use engine over nodes, runs it to quiescence
// with a background context, and tears it down — the convenience path
// for callers that do not reuse the worker pool across runs.
func RunOnce(nodes []Node, opts Options) (*Stats, error) {
	e, err := New(len(nodes), opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Run(context.Background(), nodes)
}
