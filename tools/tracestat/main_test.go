package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/trace"
)

func runTS(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeDoc writes a handcrafted Chrome trace document.
func writeDoc(t *testing.T, name, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// oneRoundDoc is a single round of 1000µs: compute span 600µs with
// 200µs (200000ns) mean barrier wait, exchange span 300µs, leaving
// 100µs "other" — shares 40/20/30/10.
const oneRoundDoc = `{"otherData":{"dropped":3},"traceEvents":[
{"ph":"X","pid":0,"tid":0,"name":"round","cat":"round","ts":0,"dur":1000,"args":{"round":1,"msgs":42}},
{"ph":"X","pid":0,"tid":1,"name":"compute","cat":"phase","ts":0,"dur":600,"args":{"round":1,"barrier_wait_ns":200000}},
{"ph":"X","pid":0,"tid":1,"name":"exchange","cat":"phase","ts":700,"dur":300,"args":{"round":1}},
{"ph":"X","pid":0,"tid":2,"name":"bfs","cat":"pass","ts":0,"dur":1000,"args":{"pass":1,"rounds":1,"words":17}}
]}`

// TestShareArithmetic pins the decomposition: compute excludes the
// barrier wait, transport is the exchange span, other is the
// remainder.
func TestShareArithmetic(t *testing.T) {
	path := writeDoc(t, "one.json", oneRoundDoc)
	code, stdout, stderr := runTS(t, path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"rounds 1  msgs 42  total 1.000ms",
		"compute           0.400ms   40.0%",
		"barrier wait      0.200ms   20.0%",
		"transport         0.300ms   30.0%",
		"other             0.100ms   10.0%",
		"dropped 3",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
	// The slowest-passes table carries each pass's words beside its
	// rounds.
	passRow := false
	for _, line := range strings.Split(stdout, "\n") {
		passRow = passRow || strings.Join(strings.Fields(line), " ") == "0 1 bfs 1.000ms 1 17"
	}
	if !strings.Contains(stdout, "rounds        words") || !passRow {
		t.Errorf("slowest-passes table lacks the words column or the pass's row:\n%s", stdout)
	}
}

// TestMergeAndTopK merges two rank files and checks the top-k table is
// sorted slowest-first across both ranks.
func TestMergeAndTopK(t *testing.T) {
	r0 := writeDoc(t, "r0.json", `{"traceEvents":[
{"ph":"X","pid":0,"tid":0,"name":"round","cat":"round","ts":0,"dur":100,"args":{"round":1,"msgs":5}},
{"ph":"X","pid":0,"tid":0,"name":"round","cat":"round","ts":200,"dur":900,"args":{"round":2,"msgs":7}}
]}`)
	r1 := writeDoc(t, "r1.json", `{"traceEvents":[
{"ph":"X","pid":1,"tid":0,"name":"round","cat":"round","ts":0,"dur":500,"args":{"round":1,"msgs":6}}
]}`)
	code, stdout, stderr := runTS(t, "-top", "2", r0, r1)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "files 2  spans 3  ranks 2") {
		t.Errorf("merge header wrong:\n%s", stdout)
	}
	if !strings.Contains(stdout, "rounds 3  msgs 18") {
		t.Errorf("merged totals wrong:\n%s", stdout)
	}
	// Slowest first: rank 0 round 2 (900µs), then rank 1 round 1 (500µs).
	i, j := strings.Index(stdout, "0      2             0.900ms"), strings.Index(stdout, "1      1             0.500ms")
	if i < 0 || j < 0 || i > j {
		t.Errorf("top-k order wrong (i=%d, j=%d):\n%s", i, j, stdout)
	}
	if strings.Contains(stdout, "0.100ms") {
		t.Errorf("-top 2 leaked a third row:\n%s", stdout)
	}
}

// TestEndToEndWithRecorder drives a real recorder through the export
// path and summarizes the file — the same pipeline ccbench -trace uses.
func TestEndToEndWithRecorder(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.SetRank(3)
	rec.Record(trace.Span{Name: trace.NameRound, Cat: trace.CatRound, Lane: trace.LaneRounds, Start: 0, Dur: 2_000_000, Round: 1, Arg: 11})
	rec.Record(trace.Span{Name: trace.NameCompute, Cat: trace.CatPhase, Lane: trace.LanePhases, Start: 0, Dur: 1_500_000, Round: 1, Arg: 500_000})
	rec.Record(trace.Span{Name: trace.NameExchange, Cat: trace.CatPhase, Lane: trace.LanePhases, Start: 1_500_000, Dur: 400_000, Round: 1})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := trace.WriteChromeFile(path, rec); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runTS(t, path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"ranks 1",
		"rounds 1  msgs 11  total 2.000ms",
		"compute           1.000ms   50.0%",
		"barrier wait      0.500ms   25.0%",
		"transport         0.400ms   20.0%",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestErrors pins the exit codes: 2 for usage, 1 for unreadable or
// empty traces.
func TestErrors(t *testing.T) {
	if code, _, _ := runTS(t); code != 2 {
		t.Errorf("no files: exit %d, want 2", code)
	}
	if code, _, _ := runTS(t, "-top", "0", writeDoc(t, "x.json", oneRoundDoc)); code != 2 {
		t.Errorf("-top 0: exit %d, want 2", code)
	}
	if code, _, _ := runTS(t, filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code, _, _ := runTS(t, writeDoc(t, "bad.json", "{")); code != 1 {
		t.Errorf("bad JSON: exit %d, want 1", code)
	}
	noRounds := writeDoc(t, "empty.json", `{"traceEvents":[]}`)
	code, _, stderr := runTS(t, noRounds)
	if code != 1 {
		t.Errorf("no round spans: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "no round spans") {
		t.Errorf("missing diagnostic: %q", stderr)
	}
}
