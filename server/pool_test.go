package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/pkg/api"
)

// TestPoolWarmReuse checks the pool hands back the same warm session
// across leases and that cumulative stats grow run over run.
func TestPoolWarmReuse(t *testing.T) {
	m := &Metrics{}
	p := newSessionPool(m, 0)
	defer p.closeAll()
	p.register(1)
	g := graph.Path(8)

	l1, err := p.acquire(context.Background(), 1, g)
	if err != nil {
		t.Fatal(err)
	}
	s1 := l1.session()
	if err := s1.Run(context.Background(), algo.NewBellmanFordKernel(0)); err != nil {
		t.Fatal(err)
	}
	l1.release()

	l2, err := p.acquire(context.Background(), 1, g)
	if err != nil {
		t.Fatal(err)
	}
	if l2.session() != s1 {
		t.Error("second acquire built a new session; want warm reuse")
	}
	if err := l2.session().Run(context.Background(), algo.NewBellmanFordKernel(7)); err != nil {
		t.Fatal(err)
	}
	l2.release()

	st, ok := p.stats(1)
	if !ok {
		t.Fatal("stats: version 1 not pooled")
	}
	if st.Kernels != 2 {
		t.Errorf("cumulative kernels = %d, want 2 (warm session accumulates)", st.Kernels)
	}
	if m.Snapshot().Rounds == 0 {
		t.Error("round hook never fired: pool sessions must stream into Metrics")
	}
	if got := m.Snapshot().SessionsActive; got != 1 {
		t.Errorf("sessionsActive = %d, want 1", got)
	}
}

// TestPoolSerializes checks concurrent leaseholders exclude each
// other: with N goroutines hammering one version, every kernel run
// happens under the lease, so the session's not-concurrency-safe
// invariant holds and all runs land in the cumulative stats.
func TestPoolSerializes(t *testing.T) {
	m := &Metrics{}
	p := newSessionPool(m, 0)
	defer p.closeAll()
	p.register(1)
	g := graph.Path(6)

	const n = 8
	var wg sync.WaitGroup
	var inLease sync.Mutex // would deadlock-detect double entry via TryLock
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := p.acquire(context.Background(), 1, g)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			defer l.release()
			if !inLease.TryLock() {
				t.Error("two goroutines held the lease at once")
				return
			}
			defer inLease.Unlock()
			if err := l.session().Run(context.Background(), algo.NewBellmanFordKernel(0)); err != nil {
				t.Errorf("run: %v", err)
			}
		}(i)
	}
	wg.Wait()

	st, _ := p.stats(1)
	if st.Kernels != n {
		t.Errorf("kernels = %d, want %d", st.Kernels, n)
	}
}

// TestPoolDrop checks drop closes the session once its holder
// releases, and that a fresh acquire of the dropped version fails with
// ErrGraphGone instead of building a new session.
func TestPoolDrop(t *testing.T) {
	m := &Metrics{}
	p := newSessionPool(m, 0)
	p.register(3)
	g := graph.Path(4)

	l, err := p.acquire(context.Background(), 3, g)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.drop(3) // blocks until the lease releases
		close(done)
	}()
	l.release()
	<-done

	if got := m.Snapshot().SessionsActive; got != 0 {
		t.Errorf("sessionsActive after drop = %d, want 0", got)
	}
	if _, err := p.acquire(context.Background(), 3, g); !errors.Is(err, ErrGraphGone) {
		t.Errorf("acquire after drop: %v, want ErrGraphGone", err)
	}
	// Dropping an unknown version is a no-op.
	p.drop(99)
}

// TestPoolAcquireAfterClose checks a waiter that outlives the drop
// gets ErrGraphGone rather than a closed session.
func TestPoolAcquireAfterClose(t *testing.T) {
	p := newSessionPool(&Metrics{}, 0)
	defer p.closeAll()
	p.register(5)
	g := graph.Path(4)
	l, err := p.acquire(context.Background(), 5, g)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		// Races drop for the lease; either it loses and sees the version
		// gone, or wins and releases before drop proceeds.
		l2, err := p.acquire(context.Background(), 5, g)
		if err == nil {
			l2.release()
		}
		got <- err
	}()
	go func() {
		l.release()
	}()
	p.drop(5)
	if err := <-got; err != nil && !errors.Is(err, ErrGraphGone) {
		t.Fatalf("late acquire error = %v, want ErrGraphGone or success", err)
	}
}

// holdLease takes e's session lease for the test and returns its
// release. The test's cleanup releases it too, so a test that fails
// while holding it does not wedge the server's shutdown.
func holdLease(t *testing.T, srv *Server, e *graphEntry) (release func()) {
	t.Helper()
	l, err := srv.pool.acquire(context.Background(), e.info.Version, e.g)
	if err != nil {
		t.Fatal(err)
	}
	release = sync.OnceFunc(l.release)
	t.Cleanup(release)
	return release
}

// within waits up to a second for cond, polling.
func within(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not so after 1s", what)
		}
	}
}

// doneProbe is a context that closes asked the first time anyone asks
// for its Done channel, which acquire does only once it has found the
// pool entry and is about to wait for the lease.
type doneProbe struct {
	context.Context
	asked chan struct{}
	once  sync.Once
}

func (d *doneProbe) Done() <-chan struct{} {
	d.once.Do(func() { close(d.asked) })
	return d.Context.Done()
}

// TestAcquireGivesUpOnItsContext: a waiter behind a held lease whose
// context ends returns ctx.Err() within 100 ms and never holds the
// lease, which still passes to the next acquirer; a drop during a wait
// still answers ErrGraphGone; and no goroutine outlives the pool.
func TestAcquireGivesUpOnItsContext(t *testing.T) {
	base := runtime.NumGoroutine()
	p := newSessionPool(&Metrics{}, 0)
	p.register(1)
	g := graph.Path(6)
	bg := context.Background()
	held, err := p.acquire(bg, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := held.session().Run(bg, algo.NewBellmanFordKernel(0)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	got := make(chan error, 1)
	go func() {
		l, err := p.acquire(ctx, 1, g)
		if err == nil {
			l.release()
		}
		got <- err
	}()
	cancel()
	start := time.Now()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("cancelled waiter returned after %v, want within 100ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter still blocked behind the lease")
	}

	// The lease is still the holder's alone, and passes on at release.
	go func() {
		l, err := p.acquire(bg, 1, g)
		if err == nil {
			l.release()
		}
		got <- err
	}()
	held.release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("next acquirer: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the lease never passed to the next acquirer")
	}

	// A drop while a waiter is queued sends it away with ErrGraphGone
	// before the holder releases.
	if held, err = p.acquire(bg, 1, g); err != nil {
		t.Fatal(err)
	}
	queued := &doneProbe{Context: bg, asked: make(chan struct{})}
	go func() {
		l, err := p.acquire(queued, 1, g)
		if err == nil {
			l.release()
		}
		got <- err
	}()
	<-queued.asked // the waiter found the entry and is at the lease
	dropped := make(chan struct{})
	go func() {
		p.drop(1)
		close(dropped)
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrGraphGone) {
			t.Fatalf("waiter during drop: %v, want ErrGraphGone", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter during drop still blocked")
	}
	held.release()
	<-dropped
	within(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// TestDeletedVersionBuildsNoSession: a query that read a graph's entry
// before its DELETE and reaches the pool after it gets ErrGraphGone; it
// neither builds a session for the dropped version nor leaves engine
// workers behind.
func TestDeletedVersionBuildsNoSession(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := New(Options{Workers: 2})
	t.Cleanup(srv.Close)
	g := graph.Path(16)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs?name=g", &buf))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	e := srv.store.get("g")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/graphs/g", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body)
	}

	if l, err := srv.pool.acquire(context.Background(), e.info.Version, e.g); !errors.Is(err, ErrGraphGone) {
		if err == nil {
			l.release()
		}
		t.Fatalf("acquire of the deleted version: %v, want ErrGraphGone", err)
	}
	if got := srv.Metrics().Snapshot().SessionsActive; got != 0 {
		t.Errorf("sessionsActive = %d, want 0", got)
	}
	within(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// TestWarmClosureAnswersWithoutTheLease: once a graph's closure is
// cached, /reachable answers from it while another holder has the
// graph's session lease — a cache hit with zero rounds.
func TestWarmClosureAnswersWithoutTheLease(t *testing.T) {
	srv := New(Options{Workers: 1})
	t.Cleanup(srv.Close)
	g := graph.Path(8)
	e, err := srv.store.add("g", g)
	if err != nil {
		t.Fatal(err)
	}
	var resp api.ReachableResponse
	decodeOK(t, serveQuery(context.Background(), srv, "/graphs/g/reachable", api.ReachableRequest{Source: 0}), &resp)
	if resp.CacheHit {
		t.Fatal("first reachable query reported a cache hit")
	}

	holdLease(t, srv, e)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- serveQuery(context.Background(), srv, "/graphs/g/reachable", api.ReachableRequest{Source: 5})
	}()
	select {
	case rec := <-done:
		decodeOK(t, rec, &resp)
	case <-time.After(time.Second):
		t.Fatal("warm /reachable still waiting behind the held lease")
	}
	if !resp.CacheHit || resp.Rounds != 0 {
		t.Errorf("warm query: cacheHit=%v rounds=%d, want a zero-round cache hit", resp.CacheHit, resp.Rounds)
	}
	if !reflect.DeepEqual(resp.Reachable, algo.ClosureRef(g, 5)) {
		t.Errorf("warm answer differs from ClosureRef")
	}
}
