package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// ErrGraphGone is returned by acquire when the graph version is not
// served: it was dropped (graph deleted or daemon shutting down)
// before or while the caller waited for its turn on the session, or
// it was never registered.
var ErrGraphGone = errors.New("server: graph version no longer served")

// sessionPool keeps one warm clique.Session per loaded graph version
// and serializes access to it. Sessions are not safe for concurrent
// use, so every query path goes acquire -> run kernels -> release; the
// per-version lease is the admission gate, and the engine's workers,
// router slabs, and cumulative stats stay warm between queries — the
// amortization that turns the batch pipeline into a serving layer.
type sessionPool struct {
	metrics *Metrics
	workers int

	mu      sync.Mutex
	entries map[uint64]*poolEntry
}

// poolEntry is one graph version's warm session. lease is a 1-slot
// channel that serializes session use: a send takes the lease, a receive
// gives it back, and a waiter can give up on its context instead. sess
// is built by the first leaseholder and only touched under the lease.
// gone is closed when the version is dropped; statsMu guards the
// release-time stats snapshot that lets /stats read accounting without
// queueing behind a running kernel.
type poolEntry struct {
	lease chan struct{}
	gone  chan struct{}
	sess  *clique.Session

	statsMu sync.Mutex
	stats   clique.Stats
}

func newSessionPool(metrics *Metrics, workers int) *sessionPool {
	return &sessionPool{metrics: metrics, workers: workers, entries: map[uint64]*poolEntry{}}
}

// register makes version servable. The store registers every version
// before it publishes the graph, so only a version that was dropped —
// or never stored — is unknown to acquire.
func (p *sessionPool) register(version uint64) {
	p.mu.Lock()
	p.entries[version] = &poolEntry{lease: make(chan struct{}, 1), gone: make(chan struct{})}
	p.mu.Unlock()
}

// acquire returns an exclusive lease on version's warm session,
// building the session (engine workers and all) for g on first use. It
// blocks while another query holds the lease, and records that wait in
// the lease-wait histogram once it holds the lease. If the version is
// not registered or is dropped while waiting, it fails with
// ErrGraphGone; if ctx ends first, it returns ctx.Err() without the
// lease.
func (p *sessionPool) acquire(ctx context.Context, version uint64, g *graph.CSR) (*lease, error) {
	p.mu.Lock()
	e, ok := p.entries[version]
	p.mu.Unlock()
	if !ok {
		return nil, ErrGraphGone
	}

	start := time.Now()
	select {
	case e.lease <- struct{}{}:
	case <-e.gone:
		return nil, ErrGraphGone
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// select picks at random among ready cases, so the lease may have
	// won against a drop or a cancellation that came first.
	err := ctx.Err()
	select {
	case <-e.gone:
		err = ErrGraphGone
	default:
	}
	if err != nil {
		<-e.lease
		return nil, err
	}
	p.metrics.leaseWait.observe(time.Since(start))
	if e.sess == nil {
		sess, err := clique.New(g,
			clique.WithWorkers(p.workers),
			clique.WithRoundHook(p.metrics.ObserveRound))
		if err != nil {
			<-e.lease
			return nil, fmt.Errorf("server: building session for graph version %d: %w", version, err)
		}
		e.sess = sess
		p.metrics.sessionsActive.Add(1)
	}
	return &lease{e: e}, nil
}

// drop removes version from the pool, sends every waiter away with
// ErrGraphGone, and closes the session once the current leaseholder (if
// any) releases. It keeps the lease, so the session is never handed out
// again. Safe to call for versions that never built a session.
func (p *sessionPool) drop(version uint64) {
	p.mu.Lock()
	e, ok := p.entries[version]
	delete(p.entries, version)
	p.mu.Unlock()
	if !ok {
		return
	}
	close(e.gone)
	e.lease <- struct{}{}
	if e.sess != nil {
		e.sess.Close()
		p.metrics.sessionsActive.Add(-1)
	}
}

// closeAll drops every pooled session; used at daemon shutdown after
// the HTTP layer has drained.
func (p *sessionPool) closeAll() {
	p.mu.Lock()
	versions := make([]uint64, 0, len(p.entries))
	for v := range p.entries {
		versions = append(versions, v)
	}
	p.mu.Unlock()
	for _, v := range versions {
		p.drop(v)
	}
}

// stats returns the last released-state accounting snapshot for
// version, and whether the version has a pooled session at all.
func (p *sessionPool) stats(version uint64) (clique.Stats, bool) {
	p.mu.Lock()
	e, ok := p.entries[version]
	p.mu.Unlock()
	if !ok {
		return clique.Stats{}, false
	}
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats, true
}

// lease is an exclusive grant on one warm session. Callers must
// release exactly once.
type lease struct {
	e *poolEntry
}

// session returns the leased warm session.
func (l *lease) session() *clique.Session { return l.e.sess }

// release snapshots the session's cumulative stats for lock-free
// /stats reads and returns the session to the pool.
func (l *lease) release() {
	st := l.e.sess.Stats()
	l.e.statsMu.Lock()
	l.e.stats = st
	l.e.statsMu.Unlock()
	<-l.e.lease
}
