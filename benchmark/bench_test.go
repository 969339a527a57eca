package main

import (
	"context"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// toyConfig runs every workload and every ladder rung at n=32 with the
// server in process, so the whole benchmark fits in tier-1.
func toyConfig(seed int64) *config {
	return &config{
		sizes: sizes{
			floodN: 32, floodFanout: 8, floodRounds: 16,
			apspN: 32, msspN: 32, serveN: 32,
			churnGraphs: 2, warmClients: 2,
			calWords: 1 << 10, setups: 2, tracedOps: 1, reps: 1,
			outboxWords: 4, sparseRounds: 16,
			ladderQuery: 100 * time.Millisecond,
		},
		seed: seed, window: 100 * time.Millisecond,
		launch: launchInProcess,
	}
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// checkNames fails unless metrics holds exactly the declared metrics,
// each with its declared unit and a finite value.
func checkNames(t *testing.T, what string, metrics map[string]metric, declared []specMetric) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s reports %q, which BENCHMARK.json does not declare", what, name)
		case unit != m.Unit:
			t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %q = %v", what, name, m.Value)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s does not report %q, which BENCHMARK.json declares", what, name)
	}
}

func checkVerified(t *testing.T, res *result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace %d: correct=%v, %d failed of %d", res.Workload, res.Trace, res.Correct, res.Failed, res.Attempted)
	}
}

// TestSmokeMatchesBenchmarkJSON runs every workload at toy size, end to
// end and traced, and holds the emitted workload and metric names equal
// to the ones BENCHMARK.json declares, in both directions.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	sp := loadSpec(t)
	var declared, have []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(declared)
	sort.Strings(have)
	if strings.Join(declared, " ") != strings.Join(have, " ") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", have, declared)
	}

	// A traced run reports the workload's own per-layer metrics plus
	// the ladder's; the ladder is the same for every workload, so the
	// test runs it once.
	var ofWorkload, ofLadder []specMetric
	for _, m := range sp.PerLayer {
		if strings.HasPrefix(m.Name, "workload.") {
			ofWorkload = append(ofWorkload, m)
		} else {
			ofLadder = append(ofLadder, m)
		}
	}
	ctx := context.Background()
	tr := newTracer()
	for _, w := range workloads {
		res, err := measureEndToEnd(ctx, w, toyConfig(1))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkVerified(t, res)
		checkNames(t, w.name, res.Metrics, sp.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %q = %v, must never be 0", w.name, name, m.Value)
			}
		}
		traced, err := measureTraced(ctx, w, toyConfig(1), tr)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkVerified(t, traced)
		checkNames(t, w.name+" traced", traced.Metrics, ofWorkload)
	}
	l, err := runLadder(ctx, toyConfig(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if l.failed != 0 || l.attempted == 0 {
		t.Errorf("ladder: %d of %d checked outputs failed", l.failed, l.attempted)
	}
	checkNames(t, "ladder", l.m, ofLadder)
	if err := tr.writeChrome(filepath.Join(t.TempDir(), "trace.json")); err != nil {
		t.Errorf("writing the trace: %v", err)
	}
	for _, layer := range []string{"engine", "matmul", "clique", "client", "server"} {
		if tr.selfTimes()[layer] <= 0 {
			t.Errorf("no span of layer %q was recorded", layer)
		}
	}
}

// TestCountsRepeatForOneSeed holds the seeded-and-reproducible
// contract: a batch workload's rounds, words and passes are a function
// of the seed alone.
func TestCountsRepeatForOneSeed(t *testing.T) {
	ctx := context.Background()
	w, err := findWorkload("mssp-256")
	if err != nil {
		t.Fatal(err)
	}
	counts := func(seed int64) [3]float64 {
		res, err := measureTraced(ctx, w, toyConfig(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		var out [3]float64
		for i, name := range exactCounts {
			out[i] = res.Metrics[name].Value
		}
		return out
	}
	a, b, c := counts(7), counts(7), counts(8)
	if a != b {
		t.Errorf("seed 7 twice: counts %v then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same counts %v; is the graph seeded?", a)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("op", "bench", -1, 0, at(0), at(100), nil)
	tr.add("a", "engine", root, 0, at(10), at(40), nil)
	tr.add("b", "engine", root, 0, at(30), at(60), nil) // overlaps a by 10ms
	self := tr.selfTimes()
	if got := self["bench"]; got != 50*time.Millisecond {
		t.Errorf("bench self time %v, want 50ms (100ms minus the 50ms its children cover)", got)
	}
	if got := self["engine"]; got != 60*time.Millisecond {
		t.Errorf("engine self time %v, want 60ms", got)
	}
}

func TestCompareGatesOnBounds(t *testing.T) {
	sp := loadSpec(t)
	mk := func(scale float64, failed int) *resultFile {
		f := &resultFile{Seed: 1, EndToEnd: map[string]*result{}}
		for _, w := range workloads {
			r := &result{Workload: w.name, Failed: failed, Metrics: map[string]metric{}}
			for _, m := range sp.EndToEnd {
				r.Metrics[m.Name] = metric{Value: 10 * scale, Unit: m.Unit}
			}
			f.EndToEnd[w.name] = r
			f.Workloads = append(f.Workloads, w.name)
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1, 0))
	if err := compareFiles(sp, base, write("same.json", mk(1.01, 0))); err != nil {
		t.Errorf("a 1%% difference must agree: %v", err)
	}
	if err := compareFiles(sp, base, write("far.json", mk(2, 0))); err == nil {
		t.Error("a 100% difference must not agree")
	}
	if err := compareFiles(sp, base, write("failed.json", mk(1, 1))); err == nil {
		t.Error("a file with failed operations must not agree")
	}
}
