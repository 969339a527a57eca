// ccbench is the repository's one kernel runner: -list prints every
// registered kernel and -kernel runs one by name on a deterministic
// weighted G(n, 0.15) instance through the session API, printing its
// passes, rounds, words and wall time. The repository's benchmark is
// benchmark/ (bash benchmark/run.sh); ccbench is the tool for running,
// checkpointing, tracing and profiling one kernel, in one process or
// as one rank of a multi-process clique.
//
// Usage:
//
//	ccbench -list
//	ccbench -kernel <name> [-kernel-n 64] [-kernel-o report.json]
//	        [-checkpoint dir] [-ckpt-every k] [-resume file.ckpt]
//	        [-transport mem|socket-tcp|socket-unix] [-ranks k]
//	        [-progress] [-trace trace.json]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	ccbench -kernel <name> -transport socket-tcp|socket-unix
//	        -addrs host0:9000,host1:9000,... -rank r
//	        [-kernel-n 64] [-kernel-o report.json] [-trace trace.json]
//
// A run is a list of local transport legs, each its own session of one
// logical clique: -transport mem is one leg, a socket -transport with
// -ranks k is k loopback legs in this process, and a socket -transport
// with -addrs is this process's one leg, rank -rank, of a
// multi-process mesh. Every process of a mesh gets the same -addrs
// list (it defines the cluster) and workload flags, and its own -rank.
// The run fails unless all local legs agree on the replay digest chain
// and the result fingerprint.
//
// -kernel-o writes a JSON report: the session stats, the replay digest
// chain and result fingerprint as 16-hex-digit strings (JSON numbers
// would round 64-bit values through float64), and the distance vector
// when the result is one. A mesh rank's report therefore compares to
// the mem run's by plain string equality; see the multiprocess job in
// .github/workflows/ci.yml.
//
// -trace writes a Chrome trace-event JSON timeline of the run
// (per-round and per-phase spans plus kernel-pass spans; one process
// lane per rank) for Perfetto or the tracestat summarizer; give each
// mesh rank its own path and tracestat merges them.
// -cpuprofile/-memprofile capture pprof profiles of the run. -progress
// paints a live round/words/rate line on a terminal stderr.
//
// -checkpoint, -resume, -progress and the SIGINT protocol belong to
// the one-leg mem run. With -checkpoint, a checkpointable kernel run
// persists its state under dir at pass boundaries, and the first
// SIGINT stops the run cleanly at the next boundary (after a final
// checkpoint), writes the partial -kernel-o report, and exits 0; a
// second SIGINT cancels hard. -resume continues a run from a
// checkpoint file written that way.
//
// Unknown flags, stray positional arguments, unknown kernel names,
// conflicting flags, and an invocation with neither -list nor -kernel
// are an error: ccbench exits with status 2 and a diagnostic rather
// than silently running defaults.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
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

// kernelOpts carries the configuration of a -kernel invocation.
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
	// transport names the legs' transport; ranks is the loopback leg
	// count of a socket transport run without addrs.
	transport string
	ranks     int
	// addrs, when non-empty, makes the run this process's one leg,
	// rank, of the multi-process mesh addrs lists. rank is the first
	// local leg's rank: 0 unless addrs is set.
	addrs []string
	rank  int
	// progress enables the live round/words/rate line on stderr,
	// auto-disabled when stderr is not a terminal.
	progress bool
	// trace, when non-empty, writes a Chrome trace-event JSON timeline
	// of the run there, one process lane per local leg.
	trace string
}

// kernelReport is the -kernel-o JSON document. Stats uses the
// repository's one stable session-accounting encoding (the JSON tags
// of clique.Stats), shared with ccserve's /stats responses.
// Wall time is per process; every other field of a completed run is
// identical across the ranks of one clique and to the mem run.
type kernelReport struct {
	Kernel     string       `json:"kernel"`
	N          int          `json:"n"`
	Transport  string       `json:"transport"`
	Ranks      int          `json:"ranks"`
	Stats      clique.Stats `json:"stats"`
	Stopped    bool         `json:"stopped"`
	Checkpoint string       `json:"checkpoint,omitempty"`
	// Digests is the replay digest chain, one 16-hex-digit string per
	// round.
	Digests []string `json:"digests"`
	// ResultFNV fingerprints the kernel result (FNV-1a over its JSON
	// encoding) so arbitrary result types compare as one string; empty
	// for a stopped run.
	ResultFNV string `json:"result_fnv,omitempty"`
	// Dist is the result verbatim when it is a distance vector.
	Dist []int64 `json:"dist,omitempty"`
}

// legRun is what one leg's finished session leaves behind.
type legRun struct {
	stats   clique.Stats
	digests []uint64
	lo, hi  int
	stopped bool
	fnv     string
	dist    []int64
}

// newLegs builds the run's local transport legs: one mem leg, ranks
// loopback legs of a socket transport, or this process's one leg of
// the multi-process mesh opt.addrs lists.
func newLegs(opt kernelOpts) ([]engine.Transport, error) {
	if len(opt.addrs) > 0 {
		tr, err := engine.NewSocketTransport(engine.SocketConfig{
			Network: strings.TrimPrefix(opt.transport, "socket-"),
			Addrs:   opt.addrs,
			Rank:    opt.rank,
		})
		if err != nil {
			return nil, err
		}
		return []engine.Transport{tr}, nil
	}
	ranks := opt.ranks
	if opt.transport == "mem" {
		ranks = 1
	}
	return engine.NewTransportCluster(opt.transport, ranks)
}

// runKernel executes one registered kernel on a deterministic weighted
// G(n, p=0.15) instance on every local leg, each leg its own session
// in its own goroutine, requires the legs to agree on the digest chain
// and the result fingerprint, and prints and writes one report.
// Unknown kernel names exit 2 like other flag errors. A run stopped by
// SIGINT at a pass boundary is a success: the final checkpoint and the
// partial report are on disk for a later -resume.
func runKernel(name string, n int, opt kernelOpts, stdout, stderr io.Writer) int {
	g := graph.RandomGNP(n, 0.15, 1).WithUniformRandomWeights(2, 16)
	k, err := clique.NewKernel(name, g)
	if err != nil {
		fmt.Fprintln(stderr, "ccbench:", err)
		return 2
	}
	if _, ok := k.(clique.Checkpointable); opt.resume != "" && !ok {
		fmt.Fprintf(stderr, "ccbench: kernel %q does not support -resume\n", name)
		return 2
	}
	legs, err := newLegs(opt)
	if err != nil {
		fmt.Fprintln(stderr, "ccbench:", err)
		return 2
	}
	mem := opt.transport == "mem"
	ranks := len(legs)
	if len(opt.addrs) > 0 {
		ranks = len(opt.addrs)
	}

	common := []clique.Option{clique.WithDigests()}
	if opt.ckptDir != "" {
		common = append(common, clique.WithCheckpoint(opt.ckptDir, opt.ckptEvery))
	}
	var meter *progressMeter
	switch {
	case !opt.progress:
	case !mem:
		fmt.Fprintln(stderr, "ccbench: -progress disabled (loopback cluster ranks would interleave)")
	case isTerminal(stderr):
		meter = newProgressMeter(stderr, 0)
		common = append(common, clique.WithRoundHook(meter.hook))
	default:
		fmt.Fprintln(stderr, "ccbench: -progress disabled (stderr is not a terminal)")
	}
	// One recorder per leg, created together so the legs share a
	// timeline epoch; the export merges them, one process lane per rank.
	var recs []*trace.Recorder
	if opt.trace != "" {
		recs = make([]*trace.Recorder, len(legs))
		for i := range recs {
			recs[i] = trace.NewRecorder(0)
			recs[i].SetRank(opt.rank + i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runs := make([]legRun, len(legs))
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i, tr := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kk := k
			if i > 0 {
				if kk, errs[i] = clique.NewKernel(name, g); errs[i] != nil {
					tr.Close()
					return
				}
			}
			sessOpts := append(slices.Clip(common), clique.WithTransport(tr))
			if recs != nil {
				sessOpts = append(sessOpts, clique.WithTrace(recs[i]))
			}
			s, err := clique.New(g, sessOpts...)
			if err != nil {
				tr.Close()
				errs[i] = err
				return
			}
			defer s.Close()
			if mem {
				defer stopOnInterrupt(s, cancel, stderr)()
			}
			runs[i], errs[i] = runLeg(ctx, s, kk, opt.resume)
		}()
	}
	wg.Wait()
	if meter != nil {
		meter.finish()
	}
	for i, err := range errs {
		if err != nil {
			fmt.Fprintf(stderr, "ccbench: rank %d: %v\n", opt.rank+i, err)
			return 1
		}
	}
	for i := 1; i < len(runs); i++ {
		if !slices.Equal(runs[i].digests, runs[0].digests) {
			fmt.Fprintf(stderr, "ccbench: rank %d digest chain diverges from rank 0\n", i)
			return 1
		}
		if runs[i].fnv != runs[0].fnv {
			fmt.Fprintf(stderr, "ccbench: rank %d result diverges from rank 0\n", i)
			return 1
		}
	}

	r := runs[0]
	st := r.stats
	label := opt.transport
	if ranks > 1 {
		label = fmt.Sprintf("%s/%d", opt.transport, ranks)
	}
	fmt.Fprintf(stdout, "%-16s %-8s %-14s %-8s %-8s %-10s %-12s %-12s\n",
		"kernel", "n", "transport", "passes", "rounds", "msgs", "bytes", "wall")
	fmt.Fprintf(stdout, "%-16s %-8d %-14s %-8d %-8d %-10d %-12d %-12s\n",
		name, n, label, st.Runs, st.Engine.Rounds, st.Engine.TotalMsgs,
		st.Engine.TotalBytes, st.Engine.Wall)
	if len(opt.addrs) > 0 {
		fmt.Fprintf(stdout, "rank %d/%d nodes [%d, %d)\n", opt.rank, ranks, r.lo, r.hi)
	}
	if len(runs) > 1 {
		fmt.Fprintf(stdout, "all %d ranks agree on %d replay digests\n", len(runs), len(r.digests))
	}
	rep := kernelReport{
		Kernel: name, N: n, Transport: opt.transport, Ranks: ranks,
		Stats: st, Stopped: r.stopped, ResultFNV: r.fnv, Dist: r.dist,
	}
	for _, d := range r.digests {
		rep.Digests = append(rep.Digests, fmt.Sprintf("%016x", d))
	}
	if r.stopped {
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
	if recs != nil {
		if err := writeTraceFile(opt.trace, recs...); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", opt.trace)
	}
	return 0
}

// runLeg runs (or, with resume, resumes) k on one leg's session and
// fingerprints a completed run's result.
func runLeg(ctx context.Context, s *clique.Session, k clique.Kernel, resume string) (legRun, error) {
	var err error
	if resume != "" {
		err = s.Resume(ctx, k.(clique.Checkpointable), resume)
	} else {
		err = s.Run(ctx, k)
	}
	r := legRun{stopped: errors.Is(err, clique.ErrStopped)}
	if err != nil && !r.stopped {
		return r, err
	}
	r.stats, r.digests = s.Stats(), s.Digests()
	r.lo, r.hi = s.Partition()
	if r.stopped {
		return r, nil
	}
	res := k.Result()
	if res == nil {
		return r, errors.New("kernel completed without a result")
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return r, fmt.Errorf("encoding kernel result: %w", err)
	}
	h := fnv.New64a()
	h.Write(enc)
	r.fnv = fmt.Sprintf("%016x", h.Sum64())
	r.dist, _ = res.([]int64)
	return r, nil
}

// stopOnInterrupt installs the SIGINT protocol on s: the first signal
// stops the run at the next pass boundary, the second cancels it hard.
// It returns the function that uninstalls the handler.
func stopOnInterrupt(s *clique.Session, cancel context.CancelFunc, stderr io.Writer) func() {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(stderr, "ccbench: interrupt — stopping at the next pass boundary (^C again to abort)")
		s.RequestStop()
		<-sigc
		cancel()
	}()
	return func() { signal.Stop(sigc) }
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
	transport := fs.String("transport", "mem", "transport for the -kernel run: mem, socket-tcp, or socket-unix")
	ranks := fs.Int("ranks", 2, "loopback rank count for a socket -transport without -addrs")
	addrsFlag := fs.String("addrs", "", "comma-separated listen address per rank of a multi-process mesh; this process runs rank -rank")
	rank := fs.Int("rank", 0, "this process's index into -addrs")
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
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

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
		case *transport != "mem" || set["addrs"] || set["rank"]:
			fmt.Fprintln(stderr, "ccbench: -transport/-addrs/-rank require -kernel")
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
	var addrs []string
	if set["addrs"] {
		addrs = strings.Split(*addrsFlag, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		switch {
		case len(addrs) < 2:
			fmt.Fprintln(stderr, "ccbench: -addrs needs one address per rank, at least 2")
			return 2
		case *transport == "mem":
			fmt.Fprintln(stderr, "ccbench: -addrs requires a socket -transport")
			return 2
		case set["ranks"]:
			fmt.Fprintln(stderr, "ccbench: -addrs and -ranks are exclusive (the -addrs list sets the rank count)")
			return 2
		case *progress:
			fmt.Fprintln(stderr, "ccbench: -progress requires the mem transport")
			return 2
		case *rank < 0 || *rank >= len(addrs):
			fmt.Fprintf(stderr, "ccbench: -rank %d outside [0, %d)\n", *rank, len(addrs))
			return 2
		}
	} else if set["rank"] {
		fmt.Fprintln(stderr, "ccbench: -rank requires -addrs")
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
		if addrs == nil && *ranks < 2 {
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
		resume: *resume, out: *kernelOut,
		transport: *transport, ranks: *ranks,
		addrs: addrs, rank: *rank,
		progress: *progress, trace: *traceOut,
	}
	return runKernel(*kernel, *kernelN, opt, stdout, stderr)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
