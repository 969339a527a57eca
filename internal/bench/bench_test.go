package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestWriteJSON(t *testing.T) {
	type report struct {
		Schema string `json:"schema"`
		Host
	}
	path := filepath.Join(t.TempDir(), "out.json")
	rep := &report{Schema: "test/v1", Host: CurrentHost()}
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
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.Schema != "test/v1" || back.GoVersion != rep.GoVersion || back.CPUs <= 0 {
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

// TestWriteJSONMarshalErrorWritesNothing: a value JSON cannot encode is
// an error, and no partial file is left at the path.
func TestWriteJSONMarshalErrorWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteJSON(path, map[string]any{"c": make(chan int)}); err == nil {
		t.Fatal("WriteJSON of an unencodable value must fail")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed WriteJSON left a file behind (stat err=%v)", err)
	}
}

// TestCurrentHost: the host metadata is the running process's own.
func TestCurrentHost(t *testing.T) {
	h := CurrentHost()
	want := Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if h != want {
		t.Errorf("CurrentHost() = %+v, want %+v", h, want)
	}
	if h.CPUs <= 0 || h.GOMAXPROCS <= 0 || h.GoVersion == "" {
		t.Errorf("implausible host metadata: %+v", h)
	}
}
