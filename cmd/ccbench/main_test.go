package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func runCC(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUnknownFlagExitsNonZero is the regression test for the silent-
// defaults bug: an unknown flag must exit 2 with a usage message, not
// run the benchmark.
func TestUnknownFlagExitsNonZero(t *testing.T) {
	code, _, stderr := runCC(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "flag provided") {
		t.Fatalf("stderr lacks usage/diagnostic:\n%s", stderr)
	}
}

// TestHelpExitsZero: -h is a successful help request, not an error.
func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCC(t, "-h")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(stderr, "Usage") {
		t.Fatalf("stderr lacks usage:\n%s", stderr)
	}
}

// TestStrayArgumentsExitNonZero: positional arguments were previously
// ignored; they must now be rejected.
func TestStrayArgumentsExitNonZero(t *testing.T) {
	code, _, stderr := runCC(t, "bogus-positional")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unexpected arguments: bogus-positional") {
		t.Fatalf("stderr lacks the stray-argument diagnostic:\n%s", stderr)
	}
	if !strings.Contains(stderr, "Usage") {
		t.Fatalf("stderr lacks usage:\n%s", stderr)
	}
}

func TestBadSizeExitsNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-sizes", "64,potato"},
		{"-sizes", "1"},
		{"-matmul-sizes", "0"},
		{"-matmul-p", "1.5"},
		{"-matmul-p", "NaN"},
		{"-hopset-sizes", "1"},
		{"-hopset-p", "0"},
		{"-hopset-p", "NaN"},
		{"-kernels-sizes", "1"},
		{"-kernels-sizes", "64,potato"},
	} {
		code, _, stderr := runCC(t, args...)
		if code != 2 {
			t.Fatalf("args %v: exit code = %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
}

// TestShortRunWritesAllReports runs the full smoke path end to end and
// checks all three artifacts land where pointed.
func TestShortRunWritesAllReports(t *testing.T) {
	dir := t.TempDir()
	engPath := filepath.Join(dir, "eng.json")
	mmPath := filepath.Join(dir, "mm.json")
	hsPath := filepath.Join(dir, "hs.json")
	code, stdout, stderr := runCC(t,
		"-short", "-sizes", "16,32", "-o", engPath, "-matmul-o", mmPath, "-hopset-o", hsPath)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	for _, p := range []string{engPath, mmPath, hsPath} {
		if !strings.Contains(stdout, "wrote "+p) {
			t.Errorf("stdout does not report writing %s:\n%s", p, stdout)
		}
	}
}

// TestHopsetReportBeatsExactRounds: what the hopset workload's report
// must show at every measured size — approximate SSSP moves strictly
// fewer words than exact APSP, and its share of exact APSP's rounds
// falls as n grows. The ratio itself is above 1 at these sizes: with
// several entries per wire word a squaring costs few rounds, while the
// pipeline's ~2β passes each pay their fixed rounds (docs/paper-map.md
// records the crossover), so "fewer rounds" is asserted as a trend, not
// as a win at n=48.
func TestHopsetReportBeatsExactRounds(t *testing.T) {
	dir := t.TempDir()
	hsPath := filepath.Join(dir, "hs.json")
	code, _, stderr := runCC(t,
		"-sizes", "", "-matmul-sizes", "", "-hopset-sizes", "48,96", "-hopset-o", hsPath)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(hsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Results []struct {
			N            int     `json:"n"`
			ExactRounds  int     `json:"exact_rounds"`
			ExactMsgs    uint64  `json:"exact_msgs"`
			ApproxRounds int     `json:"approx_rounds"`
			ApproxMsgs   uint64  `json:"approx_msgs"`
			RoundsRatio  float64 `json:"rounds_ratio"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %+v, want 2 entries", rep.Results)
	}
	for i, r := range rep.Results {
		if r.ApproxMsgs >= r.ExactMsgs {
			t.Errorf("n=%d: approx %d words >= exact %d — hopset must win",
				r.N, r.ApproxMsgs, r.ExactMsgs)
		}
		if want := float64(r.ApproxRounds) / float64(r.ExactRounds); r.RoundsRatio <= 0 || r.RoundsRatio != want {
			t.Errorf("n=%d: rounds_ratio = %v, want approx/exact = %d/%d", r.N, r.RoundsRatio, r.ApproxRounds, r.ExactRounds)
		}
		if i > 0 && r.RoundsRatio >= rep.Results[i-1].RoundsRatio {
			t.Errorf("rounds_ratio %v at n=%d is not below %v at n=%d — the pipeline's round share must fall with n",
				r.RoundsRatio, r.N, rep.Results[i-1].RoundsRatio, rep.Results[i-1].N)
		}
	}
}

// TestShortRespectsExplicitFlags: -short shrinks only the knobs the
// user left at their defaults; an explicit -matmul-sizes wins.
func TestShortRespectsExplicitFlags(t *testing.T) {
	dir := t.TempDir()
	mmPath := filepath.Join(dir, "mm.json")
	code, _, stderr := runCC(t,
		"-short", "-sizes", "16", "-matmul-sizes", "24", "-hopset-sizes", "",
		"-o", filepath.Join(dir, "eng.json"), "-matmul-o", mmPath)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(mmPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Results []struct {
			N int `json:"n"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].N != 24 {
		t.Fatalf("explicit -matmul-sizes 24 ignored under -short: %+v", rep.Results)
	}
}

// TestEmptySizesSkipsWorkload: an empty size list means "skip that
// workload" — here the flood runs alone and no matmul report is
// written (so a tracked baseline cannot be clobbered by accident).
func TestEmptySizesSkipsWorkload(t *testing.T) {
	dir := t.TempDir()
	engPath := filepath.Join(dir, "eng.json")
	mmPath := filepath.Join(dir, "mm.json")
	hsPath := filepath.Join(dir, "hs.json")
	code, stdout, stderr := runCC(t,
		"-short", "-sizes", "16", "-matmul-sizes", "", "-hopset-sizes", "",
		"-o", engPath, "-matmul-o", mmPath, "-hopset-o", hsPath)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote "+engPath) {
		t.Fatalf("flood report not written:\n%s", stdout)
	}
	if _, err := os.Stat(mmPath); !os.IsNotExist(err) {
		t.Fatalf("matmul report written despite empty -matmul-sizes (err=%v)", err)
	}
	if _, err := os.Stat(hsPath); !os.IsNotExist(err) {
		t.Fatalf("hopset report written despite empty -hopset-sizes (err=%v)", err)
	}
}

// TestListPrintsRegisteredKernels: -list must print every registered
// kernel (one per line, sorted) and exit 0 without running benchmarks.
func TestListPrintsRegisteredKernels(t *testing.T) {
	code, stdout, stderr := runCC(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"bfs", "bellman-ford", "apsp", "hop-limited", "ksource", "matmul-square",
		"widest", "widest-ksource", "closure", "mst", "diameter-est", "diameter-est-approx"} {
		if !strings.Contains(stdout, want+"\n") {
			t.Errorf("-list output lacks %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "wrote") {
		t.Errorf("-list ran a benchmark workload:\n%s", stdout)
	}
}

// TestKernelRunsByName: -kernel runs one registered kernel through the
// session API and reports its stats.
func TestKernelRunsByName(t *testing.T) {
	code, stdout, stderr := runCC(t, "-kernel", "bfs", "-kernel-n", "16")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "bfs") || !strings.Contains(stdout, "rounds") {
		t.Fatalf("-kernel output lacks the stats table:\n%s", stdout)
	}
	// A multi-pass pipeline kernel also runs end to end.
	code, stdout, _ = runCC(t, "-kernel", "ksource", "-kernel-n", "12")
	if code != 0 || !strings.Contains(stdout, "ksource") {
		t.Fatalf("-kernel ksource: code=%d stdout:\n%s", code, stdout)
	}
	// The semiring-generalization kernels are runnable by name too.
	for _, name := range []string{"widest", "closure", "mst", "diameter-est"} {
		code, stdout, stderr = runCC(t, "-kernel", name, "-kernel-n", "12")
		if code != 0 || !strings.Contains(stdout, name) {
			t.Fatalf("-kernel %s: code=%d stdout:\n%s\nstderr:\n%s", name, code, stdout, stderr)
		}
	}
}

// TestKernelsReportWritten drives the opt-in registered-kernels
// workload: one report entry per measured kernel per size, under the
// kernels schema, with sane accounting.
func TestKernelsReportWritten(t *testing.T) {
	dir := t.TempDir()
	kPath := filepath.Join(dir, "kernels.json")
	code, stdout, stderr := runCC(t,
		"-sizes", "", "-matmul-sizes", "", "-hopset-sizes", "",
		"-kernels-sizes", "16", "-kernels-o", kPath)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote "+kPath) {
		t.Fatalf("stdout does not report writing %s:\n%s", kPath, stdout)
	}
	data, err := os.ReadFile(kPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema  string `json:"schema"`
		Results []struct {
			Name   string `json:"name"`
			N      int    `json:"n"`
			Rounds int    `json:"rounds"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "doryp20/bench-kernels/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		if r.N != 16 || r.Rounds == 0 {
			t.Errorf("implausible entry %+v", r)
		}
		seen[r.Name] = true
	}
	for _, want := range []string{"widest", "widest-ksource", "closure", "mst", "diameter-est", "diameter-est-approx"} {
		if !seen[want] {
			t.Errorf("report lacks kernel %q (got %v)", want, seen)
		}
	}
}

// TestUnknownKernelExitsTwo: an unregistered kernel name is a usage
// error, exit 2, like other flag errors.
func TestUnknownKernelExitsTwo(t *testing.T) {
	code, _, stderr := runCC(t, "-kernel", "definitely-not-registered")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "unknown kernel") {
		t.Fatalf("stderr lacks the unknown-kernel diagnostic:\n%s", stderr)
	}
	if code, _, _ := runCC(t, "-kernel", "bfs", "-kernel-n", "0"); code != 2 {
		t.Fatalf("-kernel-n 0 exit code = %d, want 2", code)
	}
}

func TestUnwritableOutputExitsOne(t *testing.T) {
	code, _, stderr := runCC(t, "-short", "-sizes", "16",
		"-o", filepath.Join(t.TempDir(), "no", "such", "dir.json"))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
}

// TestKernelCheckpointAndResume drives the -checkpoint / -resume /
// -kernel-o surface: a checkpointing run leaves a checkpoint file and
// a JSON report behind, and a -resume from that file completes
// successfully.
func TestKernelCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "rep.json")
	code, stdout, stderr := runCC(t, "-kernel", "apsp", "-kernel-n", "16",
		"-checkpoint", dir, "-kernel-o", rep)
	if code != 0 {
		t.Fatalf("checkpointing run: code=%d stderr:\n%s", code, stderr)
	}
	ckpt := filepath.Join(dir, "apsp.ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint file after run: %v (stdout:\n%s)", err, stdout)
	}
	data, err := os.ReadFile(rep)
	if err != nil {
		t.Fatalf("no report: %v", err)
	}
	var r kernelReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if r.Kernel != "apsp" || r.N != 16 || r.Stopped || r.Stats.Runs < 2 {
		t.Fatalf("implausible report: %+v", r)
	}

	code, _, stderr = runCC(t, "-kernel", "apsp", "-kernel-n", "16", "-resume", ckpt)
	if code != 0 {
		t.Fatalf("-resume: code=%d stderr:\n%s", code, stderr)
	}
}

// TestCheckpointFlagValidation pins the flag-combination errors around
// -checkpoint / -resume.
func TestCheckpointFlagValidation(t *testing.T) {
	if code, _, _ := runCC(t, "-checkpoint", t.TempDir(), "-sizes", ""); code != 2 {
		t.Fatalf("-checkpoint without -kernel: code=%d, want 2", code)
	}
	if code, _, _ := runCC(t, "-kernel", "apsp", "-kernel-n", "8", "-ckpt-every", "0"); code != 2 {
		t.Fatalf("-ckpt-every 0: code=%d, want 2", code)
	}
	// bfs is single-pass and not checkpointable; -resume must refuse it.
	if code, _, stderr := runCC(t, "-kernel", "bfs", "-kernel-n", "8", "-resume", "nope.ckpt"); code != 2 ||
		!strings.Contains(stderr, "does not support -resume") {
		t.Fatalf("-resume bfs: code=%d stderr:\n%s", code, stderr)
	}
	// Resuming from a missing file is a runtime failure, exit 1.
	if code, _, _ := runCC(t, "-kernel", "apsp", "-kernel-n", "8", "-resume", "no-such-file.ckpt"); code != 1 {
		t.Fatalf("-resume missing file: code=%d, want 1", code)
	}
}

// TestKernelSigintStopsAtBoundary delivers a real SIGINT to a live
// checkpointing run and requires the documented protocol: stop at the
// next pass boundary, final checkpoint on disk, partial report with
// stopped=true, exit 0 — then a -resume completes the run.
func TestKernelSigintStopsAtBoundary(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "rep.json")
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-kernel", "apsp", "-kernel-n", "96",
			"-checkpoint", dir, "-kernel-o", rep}, &out, &errb)
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case <-done:
		t.Skip("run completed before the interrupt could be delivered")
	default:
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	code := <-done
	if code != 0 {
		t.Fatalf("interrupted run: code=%d stderr:\n%s", code, errb.String())
	}
	data, err := os.ReadFile(rep)
	if err != nil {
		t.Fatalf("no report after interrupted run: %v", err)
	}
	var r kernelReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if !r.Stopped {
		// The signal landed after the final pass; nothing left to verify.
		return
	}
	if r.Checkpoint == "" {
		t.Fatalf("stopped report lacks checkpoint path: %+v", r)
	}
	if _, err := os.Stat(r.Checkpoint); err != nil {
		t.Fatalf("stopped run left no checkpoint: %v", err)
	}
	if code, _, stderr := runCC(t, "-kernel", "apsp", "-kernel-n", "96", "-resume", r.Checkpoint); code != 0 {
		t.Fatalf("resume after SIGINT: code=%d stderr:\n%s", code, stderr)
	}
}

// TestKernelTransportCluster: a non-mem -transport runs the kernel as
// an in-process loopback cluster of sessions sharing one logical
// clique, verifies cross-rank digest agreement, and records the
// transport in the report; invalid flag combinations exit 2.
func TestKernelTransportCluster(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "rep.json")
	code, stdout, stderr := runCC(t, "-kernel", "bfs", "-kernel-n", "24",
		"-transport", "socket-unix", "-ranks", "2", "-kernel-o", rep)
	if code != 0 {
		t.Fatalf("cluster run: code=%d stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "ranks agree") {
		t.Fatalf("cluster run output lacks the digest-agreement line:\n%s", stdout)
	}
	data, err := os.ReadFile(rep)
	if err != nil {
		t.Fatalf("no report after cluster run: %v", err)
	}
	var r kernelReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if r.Transport != "socket-unix" || r.Ranks != 2 || r.Stats.Engine.Rounds == 0 {
		t.Fatalf("report misdescribes the cluster run: %+v", r)
	}

	for _, tc := range [][]string{
		{"-kernel", "bfs", "-transport", "socket-unix", "-checkpoint", t.TempDir()},
		{"-kernel", "bfs", "-transport", "socket-unix", "-resume", "x.ckpt"},
		{"-kernel", "bfs", "-transport", "socket-unix", "-ranks", "1"},
		{"-kernel", "bfs", "-transport", "bogus"},
		{"-kernel", "definitely-not-registered", "-transport", "socket-unix"},
		{"-transport", "socket-unix"},
	} {
		if code, _, stderr := runCC(t, tc...); code != 2 {
			t.Errorf("%v: code=%d, want 2 (stderr: %s)", tc, code, stderr)
		}
	}
}
