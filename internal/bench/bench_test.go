package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestFloodSmoke(t *testing.T) {
	res, err := Flood(32, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := uint64(32 * 8 * 4)
	if res.Messages != wantMsgs {
		t.Errorf("Messages = %d, want %d", res.Messages, wantMsgs)
	}
	if res.Rounds != 5 { // 4 send-rounds + the quiet round
		t.Errorf("Rounds = %d, want 5", res.Rounds)
	}
	if res.MsgsPerSec <= 0 || res.NsPerMsg <= 0 || res.RoundsPerSec <= 0 {
		t.Errorf("non-positive rates: %+v", res)
	}
}

func TestFloodFanoutClamp(t *testing.T) {
	res, err := Flood(4, 2, 100) // fanout must clamp to n-1
	if err != nil {
		t.Fatal(err)
	}
	if res.Fanout != 3 {
		t.Errorf("Fanout = %d, want 3", res.Fanout)
	}
	if res.Messages != uint64(4*3*2) {
		t.Errorf("Messages = %d, want 24", res.Messages)
	}
}

func TestRunReport(t *testing.T) {
	rep, err := Run([]int{16, 32}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two aggregate flood entries plus the per-proc scaling ladder at
	// the largest size.
	want := 2 + len(ScalingProcs)
	if len(rep.Results) != want || rep.Results[0].N != 16 || rep.Results[1].N != 32 {
		t.Errorf("unexpected results: %+v", rep.Results)
	}
	for i, procs := range ScalingProcs {
		res := rep.Results[2+i]
		if res.Name != "engine_flood_procs" || res.N != 32 || res.Procs != procs {
			t.Errorf("scaling entry %d = %+v, want engine_flood_procs n=32 procs=%d",
				i, res, procs)
		}
	}
	if rep.Schema == "" || rep.CPUs <= 0 {
		t.Errorf("incomplete metadata: %+v", rep)
	}
}

func TestMatmulSquareSmoke(t *testing.T) {
	res, err := MatmulSquare(48, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Error("matmul bench routed no messages")
	}
	if res.Rounds <= 2 {
		t.Errorf("Rounds = %d, want > 2 (paced streaming)", res.Rounds)
	}
	if res.NNZIn == 0 || res.NNZOut < res.NNZIn {
		t.Errorf("suspicious sparsity: nnz_in=%d nnz_out=%d", res.NNZIn, res.NNZOut)
	}
}

func TestRunMatmulReport(t *testing.T) {
	rep, err := RunMatmul([]int{16, 32}, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || rep.Results[0].N != 16 || rep.Results[1].N != 32 {
		t.Errorf("unexpected results: %+v", rep.Results)
	}
	if rep.Schema == "" || rep.CPUs <= 0 {
		t.Errorf("incomplete metadata: %+v", rep)
	}
}

func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	rep := &Report{Schema: "test/v1", Host: CurrentHost()}
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Error("WriteJSON output must end with a newline")
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.Schema != "test/v1" || back.GoVersion != rep.GoVersion {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	// Host fields must inline into the top-level object, not nest.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["goos"]; !ok {
		t.Error("host metadata not inlined into report JSON")
	}
	if err := WriteJSON(filepath.Join(path, "impossible", "x.json"), rep); err == nil {
		t.Error("WriteJSON to an impossible path must fail")
	}
}

// TestHopsetCompareSmoke: the approximate pipeline moves strictly fewer
// words than exact APSP at every size, and its rounds relative to exact
// APSP fall as n grows. RoundsRatio itself is above 1 at these sizes
// (packed rows make a squaring cost few rounds while each of the
// pipeline's ~2β passes pays its fixed rounds; see docs/paper-map.md
// for the crossover), so the round claim is the trend.
func TestHopsetCompareSmoke(t *testing.T) {
	prev := 0.0
	for _, n := range []int{48, 96} {
		res, err := HopsetCompare(n, 0.12, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExactRounds == 0 || res.ApproxRounds == 0 || res.Hubs == 0 {
			t.Fatalf("degenerate measurement: %+v", res)
		}
		if res.ApproxMsgs >= res.ExactMsgs {
			t.Errorf("n=%d: approx words %d >= exact %d — the hopset pipeline must win",
				n, res.ApproxMsgs, res.ExactMsgs)
		}
		if want := float64(res.ApproxRounds) / float64(res.ExactRounds); res.RoundsRatio <= 0 || res.RoundsRatio != want {
			t.Errorf("n=%d: RoundsRatio = %v, want %d/%d", n, res.RoundsRatio, res.ApproxRounds, res.ExactRounds)
		}
		if prev != 0 && res.RoundsRatio >= prev {
			t.Errorf("n=%d: RoundsRatio = %v, not below %v at the smaller size", n, res.RoundsRatio, prev)
		}
		prev = res.RoundsRatio
	}
}

func TestRunHopsetReport(t *testing.T) {
	rep, err := RunHopset([]int{24, 48}, 0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || rep.Results[0].N != 24 || rep.Results[1].N != 48 {
		t.Errorf("unexpected results: %+v", rep.Results)
	}
	if rep.Schema == "" || rep.CPUs <= 0 {
		t.Errorf("incomplete metadata: %+v", rep)
	}
}
