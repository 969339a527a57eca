// Package bench holds the two helpers every machine-readable report in
// the repository shares: the host metadata a measurement is recorded
// with (benchmark/) and the indented-JSON file writer (benchmark/,
// cmd/ccbench -kernel-o).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Host records the machine a report was measured on. It is embedded in
// every report type so the fields inline into the JSON object.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost captures the running machine's metadata.
func CurrentHost() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// WriteJSON marshals v with indentation, appends a trailing newline,
// and writes it to path — the one serialization used for every report
// file the commands write.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
