package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/algo"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// selfPeakRSSMB reads this process's high-water resident set (VmHWM)
// from /proc; 0 where /proc is not available.
func selfPeakRSSMB() float64 { return peakRSSMB("self") }

func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// genGraph is the one graph generator of the benchmark; label keeps the
// streams of different workloads apart.
func genGraph(cfg *config, n int, label string) *graph.CSR {
	return graph.RandomGNPWeighted(n, edgeProb, maxWeight, deriveSeed(cfg.seed, label))
}

// ---- flood-1024: internal/engine alone ----

// floodNode sends one word to each of its fanout ring successors for a
// fixed number of rounds, and checksums what it receives so a run's
// delivery can be verified afterwards.
type floodNode struct {
	n, fanout, rounds int
	salt              uint64
	recv, sum         uint64
}

func floodWord(salt uint64, src int, r core.Round) uint64 {
	return salt + uint64(src)<<20 + uint64(r)
}

func (fn *floodNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	fn.recv += uint64(len(inbox))
	for _, m := range inbox {
		fn.sum += m.Payload
	}
	if int(r) >= fn.rounds {
		return nil
	}
	id := int(ctx.ID())
	w := floodWord(fn.salt, id, r)
	for k := 1; k <= fn.fanout; k++ {
		if err := ctx.Send(core.NodeID((id+k)%fn.n), w); err != nil {
			return err
		}
	}
	return nil
}

type floodInst struct {
	n, fanout, rounds int
	salt              uint64
	eng               *engine.Engine
	tap               *roundTap
}

// newFlood builds an engine of n nodes and warms it with one run.
func newFlood(n, fanout, rounds int, salt uint64, workers int, tap *roundTap) (*floodInst, error) {
	f := &floodInst{n: n, fanout: min(fanout, n-1), rounds: rounds, salt: salt, tap: tap}
	opts := engine.Options{Workers: workers, MaxRounds: rounds + 2}
	if tap != nil {
		tap.computeLayer = "bench"
		opts.RoundHook = tap.hook
	}
	eng, err := engine.New(n, opts)
	if err != nil {
		return nil, err
	}
	f.eng = eng
	if r := f.op(context.Background(), 0, -1, nil); r.err != nil { // warm-up
		eng.Close()
		return nil, r.err
	}
	return f, nil
}

func floodSalt(cfg *config) uint64 { return uint64(deriveSeed(cfg.seed, "flood")) >> 8 }

func setupFlood(cfg *config, tap *roundTap) (instance, error) {
	return newFlood(cfg.floodN, cfg.floodFanout, cfg.floodRounds, floodSalt(cfg), pinnedWorkers, tap)
}

func (f *floodInst) clients() int       { return 1 }
func (f *floodInst) prepareOracle()     {}
func (f *floodInst) peakRSSMB() float64 { return selfPeakRSSMB() }
func (f *floodInst) close() error       { f.eng.Close(); return nil }

func (f *floodInst) op(ctx context.Context, _, i int, tr *tracer) opResult {
	state := make([]floodNode, f.n)
	nodes := make([]engine.Node, f.n)
	for v := range state {
		state[v] = floodNode{n: f.n, fanout: f.fanout, rounds: f.rounds, salt: f.salt}
		nodes[v] = &state[v]
	}
	runtime.GC()
	id := tr.begin("engine.Run", "engine", -1, i)
	f.tap.arm(tr, id, i)
	t0 := time.Now()
	st, err := f.eng.Run(ctx, nodes)
	res := opResult{latency: time.Since(t0)}
	tr.finish(id, nil)
	f.tap.arm(nil, -1, i)
	if err != nil {
		res.err = err
		return res
	}
	res.engineWall, res.rounds, res.words, res.passes = st.Wall, float64(st.Rounds), float64(st.TotalMsgs), 1
	// Every node must have received fanout words in each send-round,
	// from exactly its fanout ring predecessors.
	sent := make([]uint64, f.n) // checksum of everything one source sends one successor
	for src := range sent {
		for r := 0; r < f.rounds; r++ {
			sent[src] += floodWord(f.salt, src, core.Round(r))
		}
	}
	for v := range state {
		var want uint64
		for k := 1; k <= f.fanout; k++ {
			want += sent[((v-k)%f.n+f.n)%f.n]
		}
		if got := state[v].recv; got != uint64(f.fanout*f.rounds) || state[v].sum != want {
			res.err = fmt.Errorf("flood: node %d received %d words (checksum %d), want %d (%d)",
				v, got, state[v].sum, f.fanout*f.rounds, want)
			return res
		}
	}
	return res
}

// ---- apsp-160, closure-160, mssp-256: one kernel on one warm session ----

// kernelInst runs one kernel kind to solution on one warm session.
type kernelInst struct {
	g         *graph.CSR
	sess      *clique.Session
	tap       *roundTap
	newKernel func() clique.Kernel
	// oracle builds check, which compares a completed kernel's result
	// with the sequential reference.
	oracle func(g *graph.CSR) func(clique.Kernel) error
	check  func(clique.Kernel) error
}

// newSession builds a session pinned to one worker, with the tap as
// its round hook when the run is traced.
func newSession(g *graph.CSR, tap *roundTap) (*clique.Session, error) {
	opts := []clique.Option{clique.WithWorkers(pinnedWorkers)}
	if tap != nil {
		tap.computeLayer = "matmul"
		opts = append(opts, clique.WithRoundHook(tap.hook))
	}
	return clique.New(g, opts...)
}

func newKernelInst(g *graph.CSR, tap *roundTap, newKernel func() clique.Kernel,
	oracle func(*graph.CSR) func(clique.Kernel) error) (*kernelInst, error) {
	sess, err := newSession(g, tap)
	if err != nil {
		return nil, err
	}
	k := &kernelInst{g: g, sess: sess, tap: tap, newKernel: newKernel, oracle: oracle}
	if r := k.op(context.Background(), 0, -1, nil); r.err != nil { // warm-up
		sess.Close()
		return nil, r.err
	}
	return k, nil
}

func (k *kernelInst) clients() int       { return 1 }
func (k *kernelInst) prepareOracle()     { k.check = k.oracle(k.g) }
func (k *kernelInst) peakRSSMB() float64 { return selfPeakRSSMB() }
func (k *kernelInst) close() error       { k.sess.Close(); return nil }

func (k *kernelInst) op(ctx context.Context, _, i int, tr *tracer) opResult {
	kern := k.newKernel()
	runtime.GC()
	before := k.sess.Stats()
	id := tr.begin("Session.Run "+kern.Name(), "clique", -1, i)
	k.tap.arm(tr, id, i)
	t0 := time.Now()
	err := k.sess.Run(ctx, kern)
	res := opResult{latency: time.Since(t0)}
	tr.finish(id, nil)
	k.tap.arm(nil, -1, i)
	after := k.sess.Stats()
	res.engineWall = after.Engine.Wall - before.Engine.Wall
	res.rounds = float64(after.Engine.Rounds - before.Engine.Rounds)
	res.words = float64(after.Engine.TotalMsgs - before.Engine.TotalMsgs)
	res.passes = float64(after.Runs - before.Runs)
	if err != nil {
		res.err = err
	} else if k.check != nil {
		res.err = k.check(kern)
	}
	return res
}

func setupAPSP(cfg *config, tap *roundTap) (instance, error) {
	g := genGraph(cfg, cfg.apspN, "apsp")
	return newKernelInst(g, tap,
		func() clique.Kernel { return algo.NewAPSPKernel() },
		func(g *graph.CSR) func(clique.Kernel) error {
			want := make([][]int64, g.N)
			for s := range want {
				want[s] = algo.BellmanFordRef(g, core.NodeID(s))
			}
			return func(k clique.Kernel) error {
				got := k.(*algo.APSPKernel).Dist()
				for s := range want {
					for v, d := range want[s] {
						if got[s][v] != d {
							return fmt.Errorf("apsp: dist[%d][%d] = %d, BellmanFordRef %d", s, v, got[s][v], d)
						}
					}
				}
				return nil
			}
		})
}

// setupClosure uses the same graph as apsp-160, so the two workloads
// differ only in the semiring (README "Workloads").
func setupClosure(cfg *config, tap *roundTap) (instance, error) {
	g := genGraph(cfg, cfg.apspN, "apsp")
	return newKernelInst(g, tap,
		func() clique.Kernel { return algo.NewTransitiveClosureKernel() },
		func(g *graph.CSR) func(clique.Kernel) error {
			want := make([][]bool, g.N)
			for s := range want {
				want[s] = algo.ClosureRef(g, core.NodeID(s))
			}
			return func(k clique.Kernel) error {
				got := k.(*algo.TransitiveClosureKernel).Reach()
				for s := range want {
					for v, r := range want[s] {
						if got[s][v] != r {
							return fmt.Errorf("closure: reach[%d][%d] = %v, ClosureRef %v", s, v, got[s][v], r)
						}
					}
				}
				return nil
			}
		})
}

// evenSources returns ceil(sqrt(n)) evenly spaced source vertices, the
// paper's O(sqrt n)-source regime.
func evenSources(n int) []core.NodeID {
	k := int(math.Ceil(math.Sqrt(float64(n))))
	out := make([]core.NodeID, k)
	for j := range out {
		out[j] = core.NodeID(j * n / k)
	}
	return out
}

// checkBracket verifies one (1+eps)-approximate distance row against
// the exact one: same reachability, and d* <= d <= (1+eps) d*.
func checkBracket(what string, got, exact []int64) error {
	if len(got) != len(exact) {
		return fmt.Errorf("%s: %d distances, want %d", what, len(got), len(exact))
	}
	for v, d := range exact {
		a := got[v]
		if (d < 0) != (a < 0) {
			return fmt.Errorf("%s: vertex %d reachability differs from the oracle (%d vs %d)", what, v, a, d)
		}
		if d >= 0 && (a < d || float64(a) > (1+eps)*float64(d)+1e-9) {
			return fmt.Errorf("%s: vertex %d distance %d outside [%d, (1+eps)*%d]", what, v, a, d, d)
		}
	}
	return nil
}

func setupMSSP(cfg *config, tap *roundTap) (instance, error) {
	g := genGraph(cfg, cfg.msspN, "mssp")
	sources := evenSources(g.N)
	return newKernelInst(g, tap,
		func() clique.Kernel { return algo.NewApproxKSourceKernel(sources, hopset.Params{Eps: eps}) },
		func(g *graph.CSR) func(clique.Kernel) error {
			want := make([][]int64, len(sources))
			for j, s := range sources {
				want[j] = algo.BellmanFordRef(g, s)
			}
			return func(k clique.Kernel) error {
				got := k.(*algo.ApproxKSourceKernel).Dist()
				for j := range want {
					if err := checkBracket(fmt.Sprintf("mssp source %d", sources[j]), got[j], want[j]); err != nil {
						return err
					}
				}
				return nil
			}
		})
}
