package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/pkg/client"
)

// lineWaiter is an io.Writer that signals when a full line arrives, so
// the test can wait for the daemon's readiness line and parse the
// bound address out of it.
type lineWaiter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines chan string
}

func newLineWaiter() *lineWaiter { return &lineWaiter{lines: make(chan string, 16)} }

func (w *lineWaiter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, _ := w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			// Partial line: put it back and wait for more bytes.
			w.buf.WriteString(line)
			break
		}
		w.lines <- strings.TrimSuffix(line, "\n")
	}
	return n, nil
}

func (w *lineWaiter) wait(t *testing.T, prefix string) string {
	t.Helper()
	for {
		select {
		case line := <-w.lines:
			if strings.HasPrefix(line, prefix) {
				return line
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %q line", prefix)
		}
	}
}

// TestRunServesAndDrains boots the daemon on an ephemeral port, runs a
// query round-trip through pkg/client, then cancels the context (the
// SIGTERM path) and checks run drains and returns nil — the exit-0
// contract.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := newLineWaiter()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, out)
	}()

	line := out.wait(t, "ccserve listening on ")
	addr := strings.TrimPrefix(line, "ccserve listening on ")
	c := client.New("http://" + addr)

	g := graph.RandomGNPWeighted(16, 0.3, 9, 2)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	info, err := c.LoadGraph(ctx, "boot", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.SSSP(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := algo.BellmanFordRef(g, core.NodeID(0))
	for v, d := range resp.Dist {
		if d != want[v] {
			t.Fatalf("vertex %d: daemon %d, oracle %d", v, d, want[v])
		}
	}

	cancel()
	out.wait(t, "ccserve draining")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
}

// TestUnfinishedHeadersDisconnected: a client that opens a connection,
// sends part of a request head and then stalls is dropped once
// ReadHeaderTimeout passes, instead of holding the connection open.
func TestUnfinishedHeadersDisconnected(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	out := newLineWaiter()
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, out) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run returned %v after drain, want nil", err)
		}
	}()
	addr := strings.TrimPrefix(out.wait(t, "ccserve listening on "), "ccserve listening on ")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: ccserve\r\nX-Stall: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second)) //nolint:errcheck // a TCP conn accepts deadlines
	_, err = io.Copy(io.Discard, conn)                // returns nil on EOF: the server hung up
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection with unfinished headers still open after %v (ReadHeaderTimeout %v)", time.Since(start), readHeaderTimeout)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("server hung up after %v, before ReadHeaderTimeout %v: not the timeout path", waited, readHeaderTimeout)
	}
}

// TestRunBadFlags checks flag errors surface instead of serving.
func TestRunBadFlags(t *testing.T) {
	// Under a cancelled context a run that wrongly accepts its flags
	// binds, drains at once and returns nil rather than serving on.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-addr"},
		{"-addr", "127.0.0.1:0", "-workers", "-1"},
		{"-addr", "127.0.0.1:0", "-max-batch", "0"},
		{"-addr", "127.0.0.1:0", "-max-batch", "-3"},
		{"-addr", "127.0.0.1:0", "-max-upload", "0"},
		{"-addr", "127.0.0.1:0", "-max-upload", "-1"},
		{"-addr", "127.0.0.1:0", "-drain-timeout", "-1s"},
	} {
		var out bytes.Buffer
		if err := run(ctx, args, &out); err == nil {
			t.Errorf("run %q accepted bad flags", args)
		}
		if strings.Contains(out.String(), "listening") {
			t.Errorf("run %q bound a listener before rejecting its flags: %q", args, out.String())
		}
	}
}

// TestDrainDeadlineCancelsRunningQueries: a query whose kernel is still
// running when -drain-timeout passes is cancelled — its connection is
// closed and its kernel stopped — instead of being run to completion
// by the final session close; run reports the missed deadline.
func TestDrainDeadlineCancelsRunningQueries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := newLineWaiter()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "20ms"}, out)
	}()
	addr := strings.TrimPrefix(out.wait(t, "ccserve listening on "), "ccserve listening on ")
	c := client.New("http://" + addr)

	// Bellman-Ford on a long path runs one round per hop.
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, graph.Path(8192)); err != nil {
		t.Fatal(err)
	}
	info, err := c.LoadGraph(context.Background(), "long", &buf)
	if err != nil {
		t.Fatal(err)
	}
	queried := make(chan error, 1)
	go func() {
		_, err := c.SSSP(context.Background(), info.ID, 0)
		queried <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		body, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(body, "ccserve_engine_rounds_total 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the query's kernel never started")
		}
	}

	cancel()
	if err := <-queried; err == nil {
		t.Error("the query ran to completion past the drain deadline")
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "drain") {
			t.Errorf("run returned %v, want the missed drain deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after the drain deadline")
	}
}
