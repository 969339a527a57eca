// ccserve is the query-serving daemon over the Congested Clique
// shortest-path pipeline: it loads graphs over HTTP, keeps one warm
// clique session per graph, coalesces concurrent approximate queries
// into batched kernel runs, caches hopset-augmented adjacencies per
// (graph, ε), and exposes Prometheus-text metrics. The HTTP API is
// documented in pkg/api; pkg/client is the Go client.
//
// Approximate queries are batched by occupancy, not by a timer: a
// query on an idle (graph, ε) runs at once, and the queries that arrive
// while a batch runs ride the next one, up to -max-batch.
//
// Usage:
//
//	ccserve [-addr 127.0.0.1:7470] [-workers 0] [-max-batch 16]
//	        [-max-upload 67108864] [-drain-timeout 30s]
//
// A negative -workers or -drain-timeout, or a -max-batch or -max-upload
// below 1, is rejected before the listener binds.
//
// A quickstart against a running daemon:
//
//	curl -s --data-binary @graph.el 'localhost:7470/graphs?name=g'
//	curl -s -X POST -d '{"source":0}' localhost:7470/graphs/g/sssp
//	curl -s -X POST -d '{"source":0,"eps":0.25}' localhost:7470/graphs/g/approx-sssp
//	curl -s localhost:7470/metrics
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight queries, closes every pooled session, and exits 0. Queries
// still running at -drain-timeout are cancelled, and so is a hopset
// construction, each within a round; the daemon then exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/paper-repo-growth/doryp20/server"
)

// Connection timeouts: a client that dribbles or never finishes its
// request headers, or parks a keep-alive connection, cannot hold a
// goroutine and a file descriptor forever. Request bodies and responses
// are not bounded here — uploads are capped by -max-upload and queries
// by the kernels' round bounds. readHeaderTimeout is a variable so its
// test can shorten it.
const idleTimeout = 2 * time.Minute

var readHeaderTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccserve:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until ctx is done, then drains and shuts
// down. It prints "ccserve listening on ADDR" once the listener is
// bound, so callers (and the smoke harness) can wait for readiness and
// learn the port when -addr ends in :0.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7470", "listen address")
	workers := fs.Int("workers", 0, "engine workers per session (0 = GOMAXPROCS)")
	maxBatch := fs.Int("max-batch", 16, "max coalesced queries per batched kernel run")
	maxUpload := fs.Int64("max-upload", 64<<20, "graph upload size cap in bytes")
	drain := fs.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight queries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// server.New would rewrite a non-positive batch or upload cap to its
	// default; a size given on the command line is taken as meant.
	switch {
	case *workers < 0:
		return fmt.Errorf("-workers %d is negative", *workers)
	case *maxBatch < 1:
		return fmt.Errorf("-max-batch %d is below 1", *maxBatch)
	case *maxUpload < 1:
		return fmt.Errorf("-max-upload %d is below 1", *maxUpload)
	case *drain < 0:
		return fmt.Errorf("-drain-timeout %v is negative", *drain)
	}

	srv := server.New(server.Options{
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		MaxUploadBytes: *maxUpload,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ccserve listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting, wait out in-flight queries, then release
	// the pooled sessions (the deferred Close, which also stops a
	// hopset construction). Past the deadline, closing the connections
	// ends the queries' request contexts, so their kernels stop too.
	fmt.Fprintln(out, "ccserve draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "ccserve stopped")
	return nil
}
