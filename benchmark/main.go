// Command benchmark is the one benchmark for the whole stack, declared
// in BENCHMARK.json at the repository root. It runs six workloads, from
// a bare router flood up to a query through pkg/client against a
// ccserve child process, verifies every output against the sequential
// oracles, and measures every layer from outside in the same run.
//
// Usage (from the repository root; README.md has the details):
//
//	go run ./benchmark                      every workload, end to end
//	go run ./benchmark -trace 1             ... and the per-layer ladder
//	go run ./benchmark -workload apsp-160   one workload, one JSON line
//	go run ./benchmark -compare A.json B.json
//
// The driver's entry point is run.sh, which builds this package into
// the checkout and passes --workload, --seed, --seconds and --trace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/bench"
)

// spec is BENCHMARK.json: the names, units, directions and bounds this
// program must report, and the default measuring window.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// writeJSON writes v the way every BENCH_*.json is written, creating
// the output directory first.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return bench.WriteJSON(path, v)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print its result as the last line (default: all of them)")
	seed := fs.Int64("seed", 1, "derives every graph seed and query-source sequence")
	seconds := fs.Float64("seconds", 0, "measuring window per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, the layer ladder, and a trace file")
	out := fs.String("o", "", "write the result file here (default: benchmark/out/result-seed<seed>.json when running all workloads)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive window", *seconds)
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if *name == "" {
		if *out == "" {
			*out = filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", *seed))
		}
		return runAll(*seed, *seconds, *trace, outDir, *out)
	}

	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	cfg := &config{sizes: realSizes, seed: *seed, window: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 || strings.HasPrefix(w.name, "serve-") {
		// Built before set-up is timed, so setup_s is ccserve's
		// start-to-listening and not the compiler's.
		bin, err := buildCCServe(root)
		if err != nil {
			return err
		}
		cfg.launch = func() (*daemon, error) { return launchCCServe(bin) }
	}
	ctx := context.Background()
	var res *result
	if *trace == 0 {
		res, err = measureEndToEnd(ctx, w, cfg)
	} else {
		tr := newTracer()
		var l *ladder
		if res, err = measureTraced(ctx, w, cfg, tr); err == nil {
			l, err = runLadder(ctx, cfg, tr)
		}
		if err == nil {
			res.addLadder(l, tr)
			err = tr.writeChrome(filepath.Join(outDir, "trace-"+w.name+".json"))
		}
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return err
		}
	}
	printResult(res)
	return printContractLine(res)
}

func sortedKeys(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult lists every metric by name with its unit and sample
// count, sorted, for people.
func printResult(res *result) {
	fmt.Printf("workload %s  seed %d  trace %d  window %.0fs  nproc %d  GOMAXPROCS %d  %s  workers %d\n",
		res.Workload, res.Seed, res.Trace, res.Seconds, res.Env.CPUs, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Workers)
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %-8s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%d", m.Samples)
		}
		fmt.Println()
	}
	for _, n := range sortedKeys(res.Info) {
		m := res.Info[n]
		fmt.Printf("  %-34s %14.6g %-8s n=%d (not gated)\n", n, m.Value, m.Unit, m.Samples)
	}
	fmt.Printf("  %-34s %14.6g %-8s (%d of %d)\n", "failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
}

// printContractLine prints the result object the driver reads from the
// last line of standard output.
func printContractLine(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return errFailed
	}
	return nil
}

// resultFile is what a run of every workload writes: one end-to-end
// result per workload, and one per-layer result when traced.
type resultFile struct {
	Seed      int64              `json:"seed"`
	Env       environment        `json:"env"`
	EndToEnd  map[string]*result `json:"end_to_end"`
	PerLayer  map[string]*result `json:"per_layer,omitempty"`
	Workloads []string           `json:"workloads"`
}

// runAll runs every workload in a child process of its own (this
// program, re-executed), so heaps and peak RSS do not leak from one
// workload into the next, and gathers the children's result files.
func runAll(seed int64, seconds float64, trace int, outDir, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Seed: seed, Env: currentEnvironment(), EndToEnd: map[string]*result{}}
	if trace == 1 {
		file.PerLayer = map[string]*result{}
	}
	failed := false
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, w.name)
		for t := 0; t <= trace; t++ {
			part := filepath.Join(outDir, fmt.Sprintf("part-%s-trace%d.json", w.name, t))
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(t), "-o", part)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			// Pass on the child's table, not its machine-readable last line.
			lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
			os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n"))) //nolint:errcheck
			fmt.Println()
			data, err := os.ReadFile(part)
			if err != nil {
				return fmt.Errorf("%s: %v (child: %v)", w.name, err, runErr)
			}
			res := &result{}
			if err := json.Unmarshal(data, res); err != nil {
				return fmt.Errorf("%s: %w", part, err)
			}
			os.Remove(part) //nolint:errcheck // scratch
			if t == 0 {
				file.EndToEnd[w.name] = res
			} else {
				file.PerLayer[w.name] = res
			}
			failed = failed || !res.Correct
		}
	}
	if err := writeJSON(outPath, file); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if failed {
		return errFailed
	}
	return nil
}
