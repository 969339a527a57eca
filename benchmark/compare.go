package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// exactCounts are the per-layer counts that must repeat exactly for one
// seed on the batch workloads (serving batches depend on arrival times).
var exactCounts = []string{"workload.rounds_per_op", "workload.words_per_op", "workload.passes_per_op"}

// compareFiles prints, per workload and end-to-end metric, both files'
// values, their relative difference, and the metric's bound, and fails
// if any pair differs by more than its bound, if either file has a
// failed operation, or if a batch workload's counts differ between two
// traced files of the same seed.
func compareFiles(sp *spec, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	var out []string
	fmt.Printf("A = %s (seed %d)\nB = %s (seed %d)\n\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Printf("%-16s %-12s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	for _, w := range a.Workloads {
		ra, rb := a.EndToEnd[w], b.EndToEnd[w]
		if ra == nil || rb == nil {
			out = append(out, w+": missing from one file")
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			out = append(out, fmt.Sprintf("%s: failed operations (A %d, B %d)", w, ra.Failed, rb.Failed))
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := ratio(vb-va, va)
			mark := ""
			if math.Abs(diff) > m.Bound {
				mark = "  OUT OF BOUND"
				out = append(out, fmt.Sprintf("%s %s: %+.1f%% exceeds %.0f%%", w, m.Name, 100*diff, 100*m.Bound))
			}
			fmt.Printf("%-16s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w, m.Name, va, vb, 100*diff, 100*m.Bound, mark)
		}
		pa, pb := a.PerLayer[w], b.PerLayer[w]
		if pa == nil || pb == nil || a.Seed != b.Seed || strings.HasPrefix(w, "serve-") {
			continue
		}
		for _, name := range exactCounts {
			va, vb := pa.Metrics[name].Value, pb.Metrics[name].Value
			fmt.Printf("%-16s %-12s %14.0f %14.0f\n", w, strings.TrimPrefix(name, "workload."), va, vb)
			if va != vb {
				out = append(out, fmt.Sprintf("%s %s: %v != %v for one seed", w, name, va, vb))
			}
		}
	}
	if len(out) > 0 {
		return fmt.Errorf("the two results disagree:\n  %s", strings.Join(out, "\n  "))
	}
	fmt.Println("\nevery pair agrees within its bound")
	return nil
}
