// tracestat summarizes the Chrome trace-event timelines written by
// ccbench -trace: where did the wall clock go —
// compute, barrier wait, or transport exchange — and which rounds and
// kernel passes were the slowest. It is the terminal-side companion to
// loading the same file in Perfetto, and the CI assertion that a trace
// is well-formed.
//
// Usage:
//
//	tracestat [-top 5] trace.json [more-traces.json ...]
//
// Multiple files merge into one summary: pass the per-rank files of a
// multi-process ccbench cluster to see the whole clique's timeline at once (ranks are
// distinguished by the pid each recorder was tagged with, so same-rank
// spans from different files stay attributed).
//
// The share table decomposes total round wall time using the span
// arithmetic of internal/trace: the compute phase's span covers phase
// A from round start to the worker barrier, of which the recorded
// barrier_wait_ns arg is the mean worker idle; transport is the phase
// B exchange span; the remainder (scatter accounting, stats, hooks) is
// "other". Exit status: 0 ok, 1 unreadable/empty trace (a trace with
// no round spans reads as broken, not quiet), 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// event is the slice of a Chrome trace event tracestat consumes. Args
// stays loosely typed because metadata ("ph":"M") events carry string
// args; the numeric args of "X" spans go through num.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// num reads a numeric arg, 0 when absent or non-numeric.
func (e event) num(key string) float64 {
	v, _ := e.Args[key].(float64)
	return v
}

// traceDoc is the Chrome trace-event JSON object format.
type traceDoc struct {
	TraceEvents []event `json:"traceEvents"`
	OtherData   struct {
		Dropped uint64 `json:"dropped"`
	} `json:"otherData"`
}

// slowSpan is one row of a top-k table.
type slowSpan struct {
	rank  int
	index int64   // round or pass ordinal
	name  string  // kernel name for passes
	durUs float64 // microseconds
	arg   uint64  // msgs for rounds, rounds for passes
	words uint64  // words routed, for passes
}

// summary accumulates the merged statistics of all input files.
type summary struct {
	files   int
	spans   int
	dropped uint64
	ranks   map[int]bool

	rounds      int
	roundDurUs  float64
	msgs        uint64
	computeUs   float64 // compute span time, barrier wait included
	barrierUs   float64 // mean worker idle at the phase A barrier
	transportUs float64 // phase B exchange span time

	slowRounds []slowSpan
	slowPasses []slowSpan
}

// addFile folds one parsed trace document into the summary.
func (s *summary) addFile(doc *traceDoc) {
	s.files++
	s.dropped += doc.OtherData.Dropped
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s.spans++
		s.ranks[ev.Pid] = true
		switch {
		case ev.Cat == "round":
			s.rounds++
			s.roundDurUs += ev.Dur
			s.msgs += uint64(ev.num("msgs"))
			s.slowRounds = append(s.slowRounds, slowSpan{
				rank: ev.Pid, index: int64(ev.num("round")),
				durUs: ev.Dur, arg: uint64(ev.num("msgs")),
			})
		case ev.Cat == "phase" && ev.Name == "compute":
			s.computeUs += ev.Dur
			s.barrierUs += ev.num("barrier_wait_ns") / 1e3
		case ev.Cat == "phase" && ev.Name == "exchange":
			s.transportUs += ev.Dur
		case ev.Cat == "pass":
			s.slowPasses = append(s.slowPasses, slowSpan{
				rank: ev.Pid, index: int64(ev.num("pass")), name: ev.Name,
				durUs: ev.Dur, arg: uint64(ev.num("rounds")), words: uint64(ev.num("words")),
			})
		}
	}
}

// topK returns the k slowest spans, slowest first, ties broken by
// (rank, index) so the output is deterministic.
func topK(spans []slowSpan, k int) []slowSpan {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.durUs != b.durUs {
			return a.durUs > b.durUs
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.index < b.index
	})
	if len(spans) > k {
		spans = spans[:k]
	}
	return spans
}

// pct renders part/total as a percentage, 0 when total is 0.
func pct(part, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * part / total
}

// ms renders microseconds as milliseconds.
func ms(us float64) float64 { return us / 1e3 }

// report writes the human summary.
func (s *summary) report(w io.Writer, k int) {
	fmt.Fprintf(w, "files %d  spans %d  ranks %d  dropped %d\n",
		s.files, s.spans, len(s.ranks), s.dropped)
	fmt.Fprintf(w, "rounds %d  msgs %d  total %.3fms\n", s.rounds, s.msgs, ms(s.roundDurUs))

	compute := s.computeUs - s.barrierUs
	other := s.roundDurUs - s.computeUs - s.transportUs
	fmt.Fprintf(w, "%-14s %8.3fms %6.1f%%\n", "compute", ms(compute), pct(compute, s.roundDurUs))
	fmt.Fprintf(w, "%-14s %8.3fms %6.1f%%\n", "barrier wait", ms(s.barrierUs), pct(s.barrierUs, s.roundDurUs))
	fmt.Fprintf(w, "%-14s %8.3fms %6.1f%%\n", "transport", ms(s.transportUs), pct(s.transportUs, s.roundDurUs))
	fmt.Fprintf(w, "%-14s %8.3fms %6.1f%%\n", "other", ms(other), pct(other, s.roundDurUs))

	fmt.Fprintf(w, "top %d slowest rounds:\n", min(k, len(s.slowRounds)))
	fmt.Fprintf(w, "  %-6s %-8s %12s %12s\n", "rank", "round", "dur", "msgs")
	for _, r := range topK(s.slowRounds, k) {
		fmt.Fprintf(w, "  %-6d %-8d %10.3fms %12d\n", r.rank, r.index, ms(r.durUs), r.arg)
	}
	if len(s.slowPasses) > 0 {
		fmt.Fprintf(w, "top %d slowest passes:\n", min(k, len(s.slowPasses)))
		fmt.Fprintf(w, "  %-6s %-6s %-16s %12s %12s %12s\n", "rank", "pass", "kernel", "dur", "rounds", "words")
		for _, p := range topK(s.slowPasses, k) {
			fmt.Fprintf(w, "  %-6d %-6d %-16s %10.3fms %12d %12d\n", p.rank, p.index, p.name, ms(p.durUs), p.arg, p.words)
		}
	}
}

// run is the testable body of main.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 5, "rows in the slowest-rounds and slowest-passes tables")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "tracestat: no trace files given")
		fs.Usage()
		return 2
	}
	if *top < 1 {
		fmt.Fprintf(stderr, "tracestat: -top %d must be >= 1\n", *top)
		return 2
	}

	sum := &summary{ranks: map[int]bool{}}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "tracestat:", err)
			return 1
		}
		var doc traceDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			fmt.Fprintf(stderr, "tracestat: %s: %v\n", path, err)
			return 1
		}
		sum.addFile(&doc)
	}
	if sum.rounds == 0 {
		fmt.Fprintln(stderr, "tracestat: no round spans in input — not an engine trace?")
		return 1
	}
	sum.report(stdout, *top)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
