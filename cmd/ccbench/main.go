// ccbench fronts the clique kernel registry: -list prints every
// registered kernel and -kernel runs one by name on a deterministic
// weighted G(n, 0.15) instance through the session API, printing its
// passes, rounds, words and wall time. The repository's benchmark is
// benchmark/ (bash benchmark/run.sh); ccbench is the tool for running,
// checkpointing, tracing and profiling one kernel.
//
// Usage:
//
//	ccbench -list
//	ccbench -kernel <name> [-kernel-n 64] [-kernel-o report.json]
//	        [-checkpoint dir] [-ckpt-every k] [-resume file.ckpt]
//	        [-transport mem|socket-tcp|socket-unix] [-ranks k]
//	        [-progress] [-trace trace.json]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -trace writes a Chrome trace-event JSON timeline of the run
// (per-round and per-phase spans plus kernel-pass spans; one process
// lane per rank for a loopback cluster) for Perfetto or the tracestat
// summarizer. -cpuprofile/-memprofile capture pprof profiles of the
// run. -progress paints a live round/words/rate line on a terminal
// stderr.
//
// With a non-mem -transport, the -kernel run executes as a k-rank
// loopback cluster of the selected socket transport — every rank its
// own session sharing one logical clique — and fails unless all ranks
// produce bit-identical replay digest chains. -checkpoint/-resume
// require the mem transport.
//
// With -checkpoint, a checkpointable kernel run persists its state
// under dir at pass boundaries, and the first SIGINT stops the run
// cleanly at the next boundary (after a final checkpoint), writes the
// partial -kernel-o report, and exits 0; a second SIGINT cancels hard.
// -resume continues a run from a checkpoint file written that way.
//
// Unknown flags, stray positional arguments, unknown kernel names, and
// an invocation with neither -list nor -kernel are an error: ccbench
// exits with status 2 and a diagnostic rather than silently running
// defaults.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/bench"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/trace"

	// Register the algorithm kernels with the clique registry; algo's
	// own imports register matmul-square (internal/matmul) and hopset
	// (internal/hopset).
	_ "github.com/paper-repo-growth/doryp20/internal/algo"
)

// kernelOpts carries the checkpoint/resume configuration of a -kernel
// invocation.
type kernelOpts struct {
	// ckptDir and ckptEvery configure clique.WithCheckpoint; empty
	// ckptDir disables checkpointing.
	ckptDir   string
	ckptEvery int
	// resume, when non-empty, continues the run from that checkpoint
	// file instead of starting fresh.
	resume string
	// out, when non-empty, is the machine-readable report path —
	// written for completed and SIGINT-stopped runs alike.
	out string
	// signals enables the SIGINT protocol (stop at the next pass
	// boundary, cancel hard on the second signal); off in tests.
	signals bool
	// transport and ranks are engine.NewTransportCluster's arguments;
	// a non-mem transport runs ranks in-process loopback legs of one
	// logical clique (see cmd/ccnode for true multi-process meshes).
	transport string
	ranks     int
	// progress enables the live round/words/rate line on stderr,
	// auto-disabled when stderr is not a terminal.
	progress bool
	// trace, when non-empty, writes a Chrome trace-event JSON timeline
	// of the run there — for a loopback cluster, all ranks merged into
	// one file with one process lane per rank.
	trace string
}

// kernelReport is the -kernel-o JSON document. Stats uses the
// repository's one stable session-accounting encoding (see
// clique.Stats.MarshalJSON), shared with ccnode reports and ccserve's
// /stats responses.
type kernelReport struct {
	Kernel     string       `json:"kernel"`
	N          int          `json:"n"`
	Transport  string       `json:"transport,omitempty"`
	Ranks      int          `json:"ranks,omitempty"`
	Stats      clique.Stats `json:"stats"`
	Stopped    bool         `json:"stopped"`
	Checkpoint string       `json:"checkpoint,omitempty"`
}

// runKernel executes one registered kernel on a deterministic weighted
// G(n, p=0.15) instance through the session API and prints its
// cumulative stats. Unknown kernel names exit 2 like other flag
// errors. A run stopped by SIGINT at a pass boundary (see kernelOpts)
// is a success: the final checkpoint and the partial report are on
// disk for a later -resume.
func runKernel(name string, n int, opt kernelOpts, stdout, stderr io.Writer) int {
	if opt.transport != "" && opt.transport != "mem" {
		return runKernelCluster(name, n, opt, stdout, stderr)
	}
	g := graph.RandomGNP(n, 0.15, 1).WithUniformRandomWeights(2, 16)
	k, err := clique.NewKernel(name, g)
	if err != nil {
		fmt.Fprintln(stderr, "ccbench:", err)
		return 2
	}
	sessOpts := []clique.Option{clique.WithDigests()}
	if opt.ckptDir != "" {
		sessOpts = append(sessOpts, clique.WithCheckpoint(opt.ckptDir, opt.ckptEvery))
	}
	var rec *trace.Recorder
	if opt.trace != "" {
		rec = trace.NewRecorder(0)
		sessOpts = append(sessOpts, clique.WithTrace(rec))
	}
	var meter *progressMeter
	if opt.progress {
		if isTerminal(stderr) {
			meter = newProgressMeter(stderr, 0)
			sessOpts = append(sessOpts, clique.WithRoundHook(meter.hook))
		} else {
			fmt.Fprintln(stderr, "ccbench: -progress disabled (stderr is not a terminal)")
		}
	}
	s, err := clique.New(g, sessOpts...)
	if err != nil {
		fmt.Fprintln(stderr, "ccbench:", err)
		return 1
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if opt.signals {
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt)
		defer signal.Stop(sigc)
		go func() {
			<-sigc
			fmt.Fprintln(stderr, "ccbench: interrupt — stopping at the next pass boundary (^C again to abort)")
			s.RequestStop()
			<-sigc
			cancel()
		}()
	}

	if opt.resume != "" {
		ck, ok := k.(clique.Checkpointable)
		if !ok {
			fmt.Fprintf(stderr, "ccbench: kernel %q does not support -resume\n", name)
			return 2
		}
		err = s.Resume(ctx, ck, opt.resume)
	} else {
		err = s.Run(ctx, k)
	}
	if meter != nil {
		meter.finish()
	}
	stopped := errors.Is(err, clique.ErrStopped)
	if err != nil && !stopped {
		fmt.Fprintln(stderr, "ccbench:", err)
		return 1
	}

	st := s.Stats()
	fmt.Fprintf(stdout, "%-16s %-8s %-8s %-8s %-10s %-12s %-12s\n",
		"kernel", "n", "passes", "rounds", "msgs", "bytes", "wall")
	fmt.Fprintf(stdout, "%-16s %-8d %-8d %-8d %-10d %-12d %-12s\n",
		name, n, st.Runs, st.Engine.Rounds, st.Engine.TotalMsgs,
		st.Engine.TotalBytes, st.Engine.Wall)
	rep := kernelReport{Kernel: name, N: n, Stats: st, Stopped: stopped}
	if stopped {
		if _, ok := k.(clique.Checkpointable); ok && opt.ckptDir != "" {
			rep.Checkpoint = clique.CheckpointPath(opt.ckptDir, name)
			fmt.Fprintln(stdout, "stopped; checkpoint at", rep.Checkpoint)
		} else {
			fmt.Fprintln(stdout, "stopped at a pass boundary (no checkpoint configured)")
		}
	}
	if opt.out != "" {
		if err := bench.WriteJSON(opt.out, rep); err != nil {
			fmt.Fprintln(stderr, "ccbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", opt.out)
	}
	if rec != nil {
		if err := writeTraceFile(opt.trace, rec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", opt.trace)
	}
	return 0
}

// runKernelCluster executes one registered kernel on every rank of an
// in-process loopback cluster of the named transport — each rank its
// own session over its own transport leg, all ranks one logical clique
// — requires the ranks' replay digest chains to agree bit for bit, and
// reports the (cluster-global) stats. True multi-process meshes are
// cmd/ccnode's job; this path proves transport interchangeability from
// the bench CLI.
func runKernelCluster(name string, n int, opt kernelOpts, stdout, stderr io.Writer) int {
	if !clique.Registered(name) {
		fmt.Fprintf(stderr, "ccbench: unknown kernel %q\n", name)
		return 2
	}
	if opt.progress {
		fmt.Fprintln(stderr, "ccbench: -progress disabled (loopback cluster ranks would interleave)")
	}
	trs, err := engine.NewTransportCluster(opt.transport, opt.ranks)
	if err != nil {
		fmt.Fprintln(stderr, "ccbench:", err)
		return 2
	}
	g := graph.RandomGNP(n, 0.15, 1).WithUniformRandomWeights(2, 16)
	stats := make([]clique.Stats, len(trs))
	digests := make([][]uint64, len(trs))
	errs := make([]error, len(trs))
	// One recorder per rank, created together so the ranks share a
	// timeline epoch; the export merges them into one file with a
	// process lane per rank.
	var recs []*trace.Recorder
	if opt.trace != "" {
		recs = make([]*trace.Recorder, len(trs))
		for i := range recs {
			recs[i] = trace.NewRecorder(0)
			recs[i].SetRank(i)
		}
	}
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = func() error {
				k, err := clique.NewKernel(name, g)
				if err != nil {
					trs[rank].Close()
					return err
				}
				sessOpts := []clique.Option{clique.WithDigests(), clique.WithTransport(trs[rank])}
				if recs != nil {
					sessOpts = append(sessOpts, clique.WithTrace(recs[rank]))
				}
				s, err := clique.New(g, sessOpts...)
				if err != nil {
					trs[rank].Close()
					return err
				}
				defer s.Close()
				if err := s.Run(context.Background(), k); err != nil {
					return err
				}
				stats[rank] = s.Stats()
				digests[rank] = s.Digests()
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			fmt.Fprintf(stderr, "ccbench: rank %d: %v\n", rank, err)
			return 1
		}
	}
	for rank := 1; rank < len(digests); rank++ {
		if !slices.Equal(digests[rank], digests[0]) {
			fmt.Fprintf(stderr, "ccbench: rank %d digest chain diverges from rank 0\n", rank)
			return 1
		}
	}

	st := stats[0]
	fmt.Fprintf(stdout, "%-16s %-8s %-12s %-8s %-8s %-10s %-12s %-12s\n",
		"kernel", "n", "transport", "passes", "rounds", "msgs", "bytes", "wall")
	fmt.Fprintf(stdout, "%-16s %-8d %-12s %-8d %-8d %-10d %-12d %-12s\n",
		name, n, fmt.Sprintf("%s/%d", opt.transport, opt.ranks), st.Runs,
		st.Engine.Rounds, st.Engine.TotalMsgs, st.Engine.TotalBytes, st.Engine.Wall)
	fmt.Fprintf(stdout, "all %d ranks agree on %d replay digests\n", len(trs), len(digests[0]))
	if opt.out != "" {
		rep := kernelReport{
			Kernel: name, N: n, Transport: opt.transport, Ranks: opt.ranks,
			Stats: st,
		}
		if err := bench.WriteJSON(opt.out, rep); err != nil {
			fmt.Fprintln(stderr, "ccbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", opt.out)
	}
	if recs != nil {
		if err := writeTraceFile(opt.trace, recs...); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", opt.trace)
	}
	return 0
}

// run is the testable body of main: it parses args, runs the requested
// mode, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the registered clique kernels and exit")
	kernel := fs.String("kernel", "", "run one registered kernel by name through the session API and exit")
	kernelN := fs.Int("kernel-n", 64, "clique size for -kernel")
	kernelOut := fs.String("kernel-o", "", "machine-readable report path for -kernel (empty skips it)")
	ckptDir := fs.String("checkpoint", "", "checkpoint directory for -kernel runs (empty disables checkpointing)")
	ckptEvery := fs.Int("ckpt-every", 1, "minimum engine rounds between -checkpoint writes")
	resume := fs.String("resume", "", "resume the -kernel run from this checkpoint file")
	transport := fs.String("transport", "mem", "transport for the -kernel run: mem, socket-tcp, or socket-unix (loopback cluster)")
	ranks := fs.Int("ranks", 2, "rank count for a non-mem -transport")
	progress := fs.Bool("progress", false, "live rounds/words/rate line on stderr during the -kernel run (TTY only)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON timeline of the -kernel run (load in Perfetto or summarize with tracestat)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the -kernel run")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h / -help is a successful help request
		}
		// flag has already printed the error and usage to stderr.
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ccbench: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		fs.Usage()
		return 2
	}

	if *list {
		for _, name := range clique.Kernels() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *kernel == "" {
		switch {
		case *ckptDir != "" || *resume != "" || *kernelOut != "" || *traceOut != "" || *progress:
			fmt.Fprintln(stderr, "ccbench: -checkpoint/-resume/-kernel-o/-progress/-trace require -kernel")
		case *transport != "mem":
			fmt.Fprintln(stderr, "ccbench: -transport requires -kernel")
		default:
			fmt.Fprintln(stderr, "ccbench: nothing to run: pass -list or -kernel <name>")
			fs.Usage()
		}
		return 2
	}
	if *kernelN < 1 {
		fmt.Fprintf(stderr, "ccbench: -kernel-n %d must be >= 1\n", *kernelN)
		return 2
	}
	if *ckptEvery < 1 {
		fmt.Fprintf(stderr, "ccbench: -ckpt-every %d must be >= 1\n", *ckptEvery)
		return 2
	}
	if *transport != "mem" {
		// Checkpoints are written at pass boundaries by one local
		// session; resuming a sharded cluster would need every rank's
		// file restored in lockstep, which is not the bench CLI's job.
		if *ckptDir != "" || *resume != "" {
			fmt.Fprintln(stderr, "ccbench: -checkpoint/-resume require -transport mem")
			return 2
		}
		if *ranks < 2 {
			fmt.Fprintf(stderr, "ccbench: -ranks %d must be >= 2 for -transport %s\n", *ranks, *transport)
			return 2
		}
	}
	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer stop()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}
	opt := kernelOpts{
		ckptDir: *ckptDir, ckptEvery: *ckptEvery,
		resume: *resume, out: *kernelOut, signals: true,
		transport: *transport, ranks: *ranks, progress: *progress,
		trace: *traceOut,
	}
	return runKernel(*kernel, *kernelN, opt, stdout, stderr)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
