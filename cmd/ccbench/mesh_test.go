package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// readReport decodes one -kernel-o report.
func readReport(t *testing.T, path string) kernelReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep kernelReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// runMesh runs a two-rank unix-socket mesh in this process, each rank
// through the full CLI body with its own -rank and the per-rank
// arguments perRank returns, and fails the test unless both exit 0. It
// returns each rank's stdout.
func runMesh(t *testing.T, workload []string, perRank func(rank int) []string) [2]string {
	t.Helper()
	dir := t.TempDir()
	addrs := filepath.Join(dir, "rank0.sock") + "," + filepath.Join(dir, "rank1.sock")
	var codes [2]int
	var stdouts, stderrs [2]bytes.Buffer
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := append([]string{"-transport", "socket-unix", "-addrs", addrs, "-rank", fmt.Sprint(rank)}, workload...)
			codes[rank] = run(append(args, perRank(rank)...), &stdouts[rank], &stderrs[rank])
		}()
	}
	wg.Wait()
	for rank, code := range codes {
		if code != 0 {
			t.Fatalf("rank %d: exit %d\nstderr:\n%s", rank, code, stderrs[rank].String())
		}
	}
	return [2]string{stdouts[0].String(), stdouts[1].String()}
}

// TestMultiProcessEquivalence runs the headline kernel as a two-rank
// unix-socket mesh (both ranks in this process, each through the full
// CLI body) and as the plain mem run, and requires every observable in
// the reports — shard-independent stats, digest chain, result
// fingerprint, distance vector — to agree.
func TestMultiProcessEquivalence(t *testing.T) {
	dir := t.TempDir()
	workload := []string{"-kernel", "approx-sssp", "-kernel-n", "48"}

	refOut := filepath.Join(dir, "ref.json")
	if code, _, stderr := runCC(t, append(workload, "-kernel-o", refOut)...); code != 0 {
		t.Fatalf("mem reference: exit %d\nstderr:\n%s", code, stderr)
	}
	ref := readReport(t, refOut)
	if ref.Transport != "mem" || ref.Ranks != 1 {
		t.Fatalf("reference report misdescribes its run: %+v", ref)
	}
	if len(ref.Digests) == 0 || ref.Dist == nil || ref.ResultFNV == "" {
		t.Fatalf("reference report is missing observables: %+v", ref)
	}

	outs := [2]string{filepath.Join(dir, "r0.json"), filepath.Join(dir, "r1.json")}
	stdouts := runMesh(t, workload, func(rank int) []string { return []string{"-kernel-o", outs[rank]} })

	for rank := 0; rank < 2; rank++ {
		rep := readReport(t, outs[rank])
		if rep.Transport != "socket-unix" || rep.Ranks != 2 {
			t.Errorf("rank %d report misdescribes its run: %+v", rank, rep)
		}
		var r, k, lo, hi int
		if _, err := fmt.Sscanf(stdouts[rank][strings.Index(stdouts[rank], "rank "):],
			"rank %d/%d nodes [%d, %d)", &r, &k, &lo, &hi); err != nil {
			t.Fatalf("rank %d stdout lacks the shard line: %v\n%s", rank, err, stdouts[rank])
		}
		if r != rank || k != 2 {
			t.Errorf("rank %d stdout claims rank %d/%d", rank, r, k)
		}
		if lo >= hi || hi > 48 {
			t.Errorf("rank %d claims shard [%d, %d)", rank, lo, hi)
		}
		for name, pair := range map[string][2]any{
			"passes":     {rep.Stats.Runs, ref.Stats.Runs},
			"rounds":     {rep.Stats.Engine.Rounds, ref.Stats.Engine.Rounds},
			"msgs":       {rep.Stats.Engine.TotalMsgs, ref.Stats.Engine.TotalMsgs},
			"digests":    {rep.Digests, ref.Digests},
			"result_fnv": {rep.ResultFNV, ref.ResultFNV},
			"dist":       {rep.Dist, ref.Dist},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("rank %d %s diverges from the mem reference", rank, name)
			}
		}
	}
}

// TestTracePerRankFiles runs a two-rank unix-socket mesh with -trace
// and checks each rank writes its own rank-tagged Chrome trace-event
// file — the inputs tracestat merges into one timeline.
func TestTracePerRankFiles(t *testing.T) {
	dir := t.TempDir()
	traces := [2]string{filepath.Join(dir, "t0.json"), filepath.Join(dir, "t1.json")}
	runMesh(t, []string{"-kernel", "bfs", "-kernel-n", "32"},
		func(rank int) []string { return []string{"-trace", traces[rank]} })

	for rank, path := range traces {
		rounds := 0
		for _, ev := range readTrace(t, path).TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			if ev.Pid != rank {
				t.Fatalf("rank %d trace carries pid %d span", rank, ev.Pid)
			}
			if ev.Cat == "round" {
				rounds++
			}
		}
		if rounds == 0 {
			t.Errorf("rank %d trace has no round spans", rank)
		}
	}
}
