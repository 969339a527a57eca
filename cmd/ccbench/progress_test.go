package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// TestProgressMeterPaints feeds rounds through the hook and checks the
// repainted line carries cumulative rounds, words, and a rate, using
// in-place repaint control characters.
func TestProgressMeterPaints(t *testing.T) {
	var buf bytes.Buffer
	m := newProgressMeter(&buf, time.Nanosecond) // repaint on every round
	for i := 0; i < 5; i++ {
		m.hook(engine.RoundStats{Msgs: 10, Bytes: 80})
	}
	m.finish()
	out := buf.String()
	if !strings.Contains(out, "round 5") {
		t.Errorf("output lacks final round count: %q", out)
	}
	if !strings.Contains(out, "50 words") {
		t.Errorf("output lacks cumulative words: %q", out)
	}
	if !strings.Contains(out, "rounds/s") {
		t.Errorf("output lacks a rate: %q", out)
	}
	if !strings.Contains(out, "\r") {
		t.Errorf("output never repaints in place: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("finish did not terminate the line: %q", out)
	}
}

// TestProgressMeterThrottles checks a long refresh interval suppresses
// intermediate repaints: only finish writes.
func TestProgressMeterThrottles(t *testing.T) {
	var buf bytes.Buffer
	m := newProgressMeter(&buf, time.Hour)
	for i := 0; i < 100; i++ {
		m.hook(engine.RoundStats{Msgs: 1})
	}
	m.finish()
	if got := strings.Count(buf.String(), "\r"); got != 1 {
		t.Errorf("repaints = %d, want 1 (finish only)", got)
	}
}

// TestProgressAutoDisablesOffTTY runs a real -kernel invocation with
// -progress into a buffer stderr (not a terminal): the run must
// succeed, print the auto-disable note, and keep stderr free of
// control characters.
func TestProgressAutoDisablesOffTTY(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kernel", "bfs", "-kernel-n", "8", "-progress"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-progress disabled") {
		t.Errorf("missing auto-disable note on non-TTY stderr: %q", stderr.String())
	}
	if strings.ContainsAny(stderr.String(), "\r\x1b") {
		t.Errorf("control characters leaked to non-TTY stderr: %q", stderr.String())
	}
}

// TestProgressHopsetAutoDisablesOffTTY: -progress is accepted for the
// hopset kernel (the longest pipeline) and auto-disables off a terminal.
func TestProgressHopsetAutoDisablesOffTTY(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kernel", "hopset", "-kernel-n", "16", "-progress"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-progress disabled") {
		t.Errorf("missing auto-disable note on non-TTY stderr: %q", stderr.String())
	}
	if strings.ContainsAny(stderr.String(), "\r\x1b") {
		t.Errorf("control characters leaked to non-TTY stderr: %q", stderr.String())
	}
}

// TestProgressDisabledOnCluster: a loopback cluster run never paints
// the meter (its ranks would interleave), whatever stderr is, and
// still completes.
func TestProgressDisabledOnCluster(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-kernel", "bfs", "-kernel-n", "12", "-transport", "socket-unix", "-ranks", "2", "-progress"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "ranks would interleave") {
		t.Errorf("missing cluster auto-disable note: %q", stderr.String())
	}
	if strings.ContainsAny(stderr.String(), "\r\x1b") {
		t.Errorf("control characters leaked to stderr: %q", stderr.String())
	}
	if !strings.Contains(stdout.String(), "ranks agree") {
		t.Errorf("cluster run output lacks the digest-agreement line:\n%s", stdout.String())
	}
}

// TestProgressRequiresKernel checks the flag is rejected without a
// -kernel run to consume it.
func TestProgressRequiresKernel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-progress"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-progress/-trace require -kernel") {
		t.Errorf("missing diagnostic: %q", stderr.String())
	}
}
