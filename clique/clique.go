// Package clique is the public session API of the Dory-Parter
// Congested Clique reproduction: the one way to run anything on the
// simulator. clique.New(g, opts...) builds a reusable *Session whose
// engine workers, sharded router, and stats sink stay warm across runs;
// Session.Run(ctx, kernel) executes a Kernel — a possibly multi-pass
// distributed computation — with context cancellation and deadlines
// plumbed into the engine's round barrier.
//
// Kernels are composable: a pipeline kernel (for example
// algo.KSourceKernel — hop-limited matrix powering followed by
// per-source relaxation, the skeleton the hopset construction drops
// into) simply requests one engine pass after another from the same
// warm session, and the session's cumulative Stats bill every stage
// under one account. The package also hosts a registry (Register /
// Kernels / NewKernel) that cmd/ccbench and the test suite iterate
// uniformly; internal/algo, internal/hopset, and internal/matmul
// register their kernels at init.
package clique

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/trace"
)

// settings is the accumulated result of applying functional options.
type settings struct {
	eng engine.Options
	// explicitMaxRounds records that the caller pinned MaxRounds, so
	// a kernel's Pass.MaxRounds must not override it.
	explicitMaxRounds bool
	// ckptDir configures pass-boundary checkpointing; see
	// WithCheckpoint in checkpoint.go.
	ckptDir string
}

// Option configures a Session at New; see WithWorkers, WithMaxRounds,
// WithRoundHook, WithTrace, and WithTransport.
type Option func(*settings)

// WithWorkers sets the engine's scheduler worker (and router shard)
// count. Zero selects the GOMAXPROCS default; negative values are
// rejected by New.
func WithWorkers(w int) Option {
	return func(s *settings) { s.eng.Workers = w }
}

// WithMaxRounds pins the per-pass round bound. An explicit bound is
// authoritative: kernels cannot raise it via Pass.MaxRounds, and a pass
// that fails to quiesce within it fails with engine.ErrMaxRounds. Zero
// restores the adaptive default (4n+64, raised per pass by the kernel's
// Pass.MaxRounds); negative values are rejected by New.
func WithMaxRounds(m int) Option {
	return func(s *settings) {
		s.eng.MaxRounds = m
		s.explicitMaxRounds = m != 0
	}
}

// WithRoundHook installs a streaming observability tap: h is invoked
// synchronously after every executed engine round, across all passes
// and kernels of the session, with that round's stats. It must not call
// back into the session.
func WithRoundHook(h func(engine.RoundStats)) Option {
	return func(s *settings) { s.eng.RoundHook = h }
}

// WithTrace feeds the session's timing spans into recorder r: the
// engine records the per-round envelope and compute/scatter/exchange
// phase breakdown, and the session adds one span per kernel pass
// (named after the kernel, carrying the pass index and its round
// count). Nil disables tracing — the default, costing one nil check
// per round. Export the recorder with trace.WriteChrome after the
// runs; a multi-rank run passes one recorder per rank (tagged via
// Recorder.SetRank) to merge into a single timeline.
func WithTrace(r *trace.Recorder) Option {
	return func(s *settings) { s.eng.Trace = r }
}

// WithTransport routes the engine's per-round scatter/exchange through
// tr — engine.NewMemTransport (the default when nil) for the
// in-process box router, or a multi-process transport such as
// engine.SocketTransport for one rank of a clique sharded across
// processes. The session (via its engine) takes ownership of tr and
// closes it on Close. See engine.Options.Transport.
func WithTransport(tr engine.Transport) Option {
	return func(s *settings) { s.eng.Transport = tr }
}

// Stats is a session's cumulative accounting across every engine pass
// it has executed, for every kernel run on it. Its JSON tags give the
// repository's one stable encoding of session accounting,
// {"runs","kernels","engine":{"rounds","msgs","bytes","wall_ns"}}:
// ccbench -kernel-o reports (every rank's) and ccserve's /stats
// endpoint both embed it, so the shape is golden-file tested and must
// only grow backward-compatibly.
type Stats struct {
	// Runs counts engine passes (a pipeline kernel contributes one per
	// stage product).
	Runs int `json:"runs"`
	// Kernels counts kernels run to completion.
	Kernels int `json:"kernels"`
	// Engine accumulates rounds, routed words, bytes, and wall time
	// over all passes; use WithRoundHook for per-round detail.
	Engine engine.Stats `json:"engine"`
}

// Session is a reusable handle on one simulated clique: the engine's
// worker pool, router boxes, and bandwidth counters are built once and
// stay warm across every Run. Sessions are not safe for concurrent use
// and must be released with Close.
type Session struct {
	g                 *graph.CSR
	eng               *engine.Engine
	explicitMaxRounds bool
	stats             Stats
	tracer            *trace.Recorder
	closed            bool

	// Checkpoint/replay state (see checkpoint.go). digests accumulates
	// the engine's per-round replay digests across all passes of the
	// current kernel run; kernelPasses counts its completed passes;
	// stop is the RequestStop flag, observed at pass boundaries.
	ckptDir       string
	digests       []uint64
	recordDigests bool
	kernelPasses  int
	stop          atomic.Bool
}

// New builds a session over graph g (the clique size is g.N). Invalid
// options — negative worker or round counts — are rejected here with a
// descriptive error.
func New(g *graph.CSR, opts ...Option) (*Session, error) {
	if g == nil {
		return nil, errors.New("clique: New requires a graph (use NewSize for graph-free sessions)")
	}
	return newSession(g, g.N, opts)
}

// NewSize builds a graph-free session for a clique of n nodes — the
// home for kernels whose inputs are not graphs, such as the matmul
// product kernels that carry their operand matrices. Kernels that need
// the session graph fail their Run with a descriptive error.
func NewSize(n int, opts ...Option) (*Session, error) {
	return newSession(nil, n, opts)
}

func newSession(g *graph.CSR, n int, opts []Option) (*Session, error) {
	var s settings
	for _, opt := range opts {
		opt(&s)
	}
	sess := &Session{
		g:                 g,
		explicitMaxRounds: s.explicitMaxRounds,
		ckptDir:           s.ckptDir,
		recordDigests:     s.eng.RecordDigests,
		tracer:            s.eng.Trace,
	}
	// The session interposes on the engine's RoundHook to accumulate
	// replay digests across passes; the caller's hook (if any) still
	// sees every round.
	userHook := s.eng.RoundHook
	s.eng.RoundHook = func(rs engine.RoundStats) {
		if sess.recordDigests {
			sess.digests = append(sess.digests, rs.Digest)
		}
		if userHook != nil {
			userHook(rs)
		}
	}
	e, err := engine.New(n, s.eng)
	if err != nil {
		return nil, err
	}
	sess.eng = e
	return sess, nil
}

// Graph returns the graph the session was built over, or nil for a
// NewSize session.
func (s *Session) Graph() *graph.CSR { return s.g }

// N returns the clique size.
func (s *Session) N() int { return s.eng.NumNodes() }

// Partition returns the node range [lo, hi) the session transport
// assigned this process — [0, N()) on the in-process transport, this
// rank's shard on a multi-process one.
func (s *Session) Partition() (lo, hi int) { return s.eng.Partition() }

// Stats returns the session's cumulative accounting. The returned copy
// keeps growing semantics simple: it reflects everything executed so
// far and is not invalidated by later runs.
func (s *Session) Stats() Stats { return s.stats }

// Close releases the engine's worker goroutines. The session must not
// be used afterwards; Close is idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.eng.Close()
}

// Run executes kernel k to completion on the warm session: it asks the
// kernel for one engine pass after another (Kernel.Next) until the
// kernel reports completion with a nil node set, threading ctx's
// cancellation and deadline into every round barrier. A non-nil empty
// node set is a vacuous pass, not completion — that distinction keeps
// the kernel protocol (build, run, harvest) intact on zero-node
// sessions. On cancellation Run returns ctx.Err() and the session
// remains usable for further kernels; partial passes are still billed
// to Stats.
//
// A kernel that panics — in a node's Round handler or in Next itself —
// does not take the session down: the panic is recovered and returned
// as a *KernelPanicError, and the warm engine remains usable for the
// next kernel. When the session is configured WithCheckpoint and k is
// Checkpointable, a checkpoint is written at every pass boundary (see
// checkpoint.go); RequestStop ends the run with ErrStopped at the next
// pass boundary, after that boundary's checkpoint.
func (s *Session) Run(ctx context.Context, k Kernel) error {
	if s.closed {
		return ErrClosed
	}
	if k == nil {
		return errors.New("clique: Run with a nil Kernel")
	}
	// A fresh kernel run: restart the per-run digest chain, pass
	// counter, and any stale stop request.
	s.digests = s.digests[:0]
	s.kernelPasses = 0
	s.stop.Store(false)
	return s.runLoop(ctx, k)
}

// runLoop is the shared pass-driving loop of Run and Resume. It
// assumes the per-run session state (digests, kernelPasses, stop) has
// been initialized by its caller. After every successful pass it
// all-gathers the pass's Rows — the one place the multi-rank gather
// lives — before the kernel harvests them and before any checkpoint.
func (s *Session) runLoop(ctx context.Context, k Kernel) error {
	ck, checkpointing := k.(Checkpointable)
	checkpointing = checkpointing && s.ckptDir != ""
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		pass, err := s.safeNext(k)
		if err != nil {
			return err
		}
		if pass.Nodes == nil {
			s.stats.Kernels++
			return nil
		}
		bound := pass.MaxRounds
		if s.explicitMaxRounds {
			bound = 0
		}
		var passStart time.Time
		if s.tracer != nil {
			passStart = time.Now()
		}
		st, err := s.eng.RunBounded(ctx, pass.Nodes, bound)
		s.track(st)
		if s.tracer != nil && st != nil {
			// One pass span per engine pass, on the rank's pass lane —
			// named after the kernel so a pipeline's stages read off the
			// timeline. Recorded for failed passes too: a trace that
			// ends at the failing pass is the point of tracing.
			s.tracer.Record(trace.Span{
				Name: k.Name(), Cat: trace.CatPass, Lane: trace.LanePasses,
				Start: s.tracer.Since(passStart), Dur: int64(time.Since(passStart)),
				Round: int64(s.kernelPasses), Arg: uint64(st.Rounds), Arg2: st.TotalMsgs,
			})
		}
		if err != nil {
			var hp *engine.HandlerPanicError
			if errors.As(err, &hp) {
				return &KernelPanicError{Kernel: k.Name(), Node: hp.Node, Round: hp.Round, Value: hp.Value}
			}
			return err
		}
		if len(pass.Rows) > 0 {
			if err := s.eng.Transport().AllGatherRows(pass.Rows, pass.RowLen); err != nil {
				return fmt.Errorf("clique: kernel %q: gathering rows: %w", k.Name(), err)
			}
		}
		s.kernelPasses++
		stopping := s.stop.Load()
		if checkpointing {
			if err := s.writeCheckpoint(ck); err != nil {
				return err
			}
		}
		if stopping {
			s.stop.Store(false)
			return ErrStopped
		}
	}
}

// safeNext calls k.Next with panic containment, wrapping errors with
// the kernel name and panics as *KernelPanicError.
func (s *Session) safeNext(k Kernel) (pass Pass, err error) {
	defer func() {
		if p := recover(); p != nil {
			pass = Pass{}
			err = &KernelPanicError{Kernel: k.Name(), Node: -1, Value: p}
		}
	}()
	pass, err = k.Next(s.g)
	if err != nil {
		return Pass{}, fmt.Errorf("clique: kernel %q: %w", k.Name(), err)
	}
	return pass, nil
}

// track folds one engine pass into the cumulative account.
func (s *Session) track(st *engine.Stats) {
	if st == nil {
		return
	}
	s.stats.Runs++
	s.stats.Engine.Rounds += st.Rounds
	s.stats.Engine.TotalMsgs += st.TotalMsgs
	s.stats.Engine.TotalBytes += st.TotalBytes
	s.stats.Engine.Wall += st.Wall
}
