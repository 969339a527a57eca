package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
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

// TestBadSizeExitsNonZero: every numeric flag that survives the
// workload flags' removal rejects an out-of-range or malformed value
// with exit 2 instead of running.
func TestBadSizeExitsNonZero(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"kernel-n_zero", []string{"-kernel", "bfs", "-kernel-n", "0"}},
		{"kernel-n_negative", []string{"-kernel", "bfs", "-kernel-n", "-4"}},
		{"kernel-n_malformed", []string{"-kernel", "bfs", "-kernel-n", "64,potato"}},
		{"ranks_one", []string{"-kernel", "bfs", "-kernel-n", "8", "-transport", "socket-unix", "-ranks", "1"}},
		{"ranks_malformed", []string{"-kernel", "bfs", "-kernel-n", "8", "-transport", "socket-unix", "-ranks", "two"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCC(t, tc.args...)
			if code != 2 {
				t.Fatalf("args %v: exit code = %d, want 2 (stderr: %s)", tc.args, code, stderr)
			}
			if strings.Contains(stdout, "rounds") {
				t.Fatalf("args %v: ran a kernel despite the bad value:\n%s", tc.args, stdout)
			}
		})
	}
}

// TestBareRunExitsTwo: with neither -list nor -kernel there is nothing
// to run, so ccbench prints usage and exits 2 without writing anything
// into the working directory.
func TestBareRunExitsTwo(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Errorf("restoring the working directory: %v", err)
		}
	})
	code, stdout, stderr := runCC(t)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stdout: %s)", code, stdout)
	}
	if !strings.Contains(stderr, "Usage") || !strings.Contains(stderr, "-kernel") {
		t.Fatalf("stderr lacks usage:\n%s", stderr)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("bare run left %v in the working directory (err=%v)", entries, err)
	}
}

// TestListPrintsRegisteredKernels: -list must print every registered
// kernel (one per line, sorted) and exit 0 without running one.
func TestListPrintsRegisteredKernels(t *testing.T) {
	code, stdout, stderr := runCC(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"bfs", "bellman-ford", "apsp", "hop-limited", "ksource", "matmul-square",
		"hopset", "widest", "widest-ksource", "closure", "mst", "diameter-est", "diameter-est-approx"} {
		if !strings.Contains(stdout, want+"\n") {
			t.Errorf("-list output lacks %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "wrote") {
		t.Errorf("-list wrote a report:\n%s", stdout)
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

// TestKernelsReportWritten: each kernel the retired kernels, matmul
// and hopset workloads measured still runs by name and writes a
// -kernel-o report describing the run.
func TestKernelsReportWritten(t *testing.T) {
	for _, name := range []string{"widest", "widest-ksource", "closure", "mst",
		"diameter-est", "diameter-est-approx", "matmul-square", "hopset"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "kernel.json")
			code, stdout, stderr := runCC(t, "-kernel", name, "-kernel-n", "16", "-kernel-o", path)
			if code != 0 {
				t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stdout, "wrote "+path) {
				t.Fatalf("stdout does not report writing %s:\n%s", path, stdout)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var r kernelReport
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatalf("report does not parse: %v", err)
			}
			if r.Kernel != name || r.N != 16 || r.Stopped || r.Stats.Runs < 1 ||
				r.Stats.Engine.Rounds == 0 || r.Stats.Engine.TotalMsgs == 0 {
				t.Fatalf("implausible report: %+v", r)
			}
		})
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
	code, _, stderr := runCC(t, "-kernel", "bfs", "-kernel-n", "16",
		"-kernel-o", filepath.Join(t.TempDir(), "no", "such", "dir.json"))
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
	if code, _, _ := runCC(t, "-checkpoint", t.TempDir()); code != 2 {
		t.Fatalf("-checkpoint without -kernel: code=%d, want 2", code)
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
// clique, verifies cross-rank digest and result agreement, records the
// transport in the report, and answers what the mem run answers;
// invalid flag combinations, the -addrs ones included, exit 2.
func TestKernelTransportCluster(t *testing.T) {
	dir := t.TempDir()
	rep, memRep := filepath.Join(dir, "rep.json"), filepath.Join(dir, "mem.json")
	code, stdout, stderr := runCC(t, "-kernel", "bfs", "-kernel-n", "24",
		"-transport", "socket-unix", "-ranks", "2", "-kernel-o", rep)
	if code != 0 {
		t.Fatalf("cluster run: code=%d stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "ranks agree") {
		t.Fatalf("cluster run output lacks the digest-agreement line:\n%s", stdout)
	}
	r := readReport(t, rep)
	if r.Transport != "socket-unix" || r.Ranks != 2 || r.Stats.Engine.Rounds == 0 {
		t.Fatalf("report misdescribes the cluster run: %+v", r)
	}
	if code, _, stderr := runCC(t, "-kernel", "bfs", "-kernel-n", "24", "-kernel-o", memRep); code != 0 {
		t.Fatalf("mem run: code=%d stderr:\n%s", code, stderr)
	}
	m := readReport(t, memRep)
	if r.ResultFNV == "" || r.ResultFNV != m.ResultFNV || !slices.Equal(r.Dist, m.Dist) {
		t.Errorf("cluster result (fnv %s, dist %v) differs from the mem run's (fnv %s, dist %v)",
			r.ResultFNV, r.Dist, m.ResultFNV, m.Dist)
	}

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"checkpoint", []string{"-kernel", "bfs", "-transport", "socket-unix", "-checkpoint", t.TempDir()}},
		{"resume", []string{"-kernel", "bfs", "-transport", "socket-unix", "-resume", "x.ckpt"}},
		{"ranks_one", []string{"-kernel", "bfs", "-transport", "socket-unix", "-ranks", "1"}},
		{"bogus_transport", []string{"-kernel", "bfs", "-transport", "bogus"}},
		{"unknown_kernel", []string{"-kernel", "definitely-not-registered", "-transport", "socket-unix"}},
		{"no_kernel", []string{"-transport", "socket-unix"}},
		// A mesh rank's usage errors: none of these may listen.
		{"addrs_no_kernel", []string{"-addrs", "a,b", "-rank", "0"}},
		{"rank_no_addrs", []string{"-kernel", "bfs", "-transport", "socket-unix", "-rank", "0"}},
		{"addrs_one", []string{"-kernel", "bfs", "-transport", "socket-unix", "-addrs", "a"}},
		{"rank_out_of_range", []string{"-kernel", "bfs", "-transport", "socket-unix", "-addrs", "a,b", "-rank", "2"}},
		{"rank_negative", []string{"-kernel", "bfs", "-transport", "socket-unix", "-addrs", "a,b", "-rank", "-1"}},
		{"addrs_bad_kernel", []string{"-kernel", "nope", "-transport", "socket-unix", "-addrs", "a,b"}},
		{"addrs_bad_n", []string{"-kernel", "bfs", "-kernel-n", "0", "-transport", "socket-unix", "-addrs", "a,b"}},
		{"addrs_bad_network", []string{"-kernel", "bfs", "-transport", "carrier-pigeon", "-addrs", "a,b"}},
		{"addrs_stray_args", []string{"-kernel", "bfs", "-transport", "socket-unix", "-addrs", "a,b", "stray"}},
		{"addrs_mem", []string{"-kernel", "bfs", "-addrs", "a,b"}},
		{"ranks_mem", []string{"-kernel", "bfs", "-kernel-n", "8", "-transport", "mem", "-ranks", "4"}},
		{"addrs_ranks", []string{"-kernel", "bfs", "-transport", "socket-unix", "-addrs", "a,b", "-ranks", "2"}},
		{"addrs_checkpoint", []string{"-kernel", "bfs", "-transport", "socket-unix", "-addrs", "a,b", "-checkpoint", t.TempDir()}},
		{"addrs_resume", []string{"-kernel", "apsp", "-transport", "socket-unix", "-addrs", "a,b", "-resume", "x.ckpt"}},
		{"addrs_progress", []string{"-kernel", "bfs", "-transport", "socket-unix", "-addrs", "a,b", "-progress"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, stderr := runCC(t, tc.args...); code != 2 {
				t.Errorf("%v: code=%d, want 2 (stderr: %s)", tc.args, code, stderr)
			}
		})
	}
}
