package clique

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// goldenStats is the fixed value whose encoding is pinned by
// testdata/stats_golden.json — the one marshal path shared by ccbench
// reports and ccserve /stats responses.
var goldenStats = Stats{
	Runs:    7,
	Kernels: 2,
	Engine: engine.Stats{
		Rounds:     123,
		TotalMsgs:  456789,
		TotalBytes: 3654312,
		Wall:       1500000321 * time.Nanosecond,
	},
}

func TestStatsJSONGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenStats, "", "  ")
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "stats_golden.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stats JSON shape drifted from the golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal(goldenStats)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, goldenStats) {
		t.Fatalf("round trip: got %+v, want %+v", back, goldenStats)
	}
}
