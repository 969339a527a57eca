package clique

import (
	"encoding/json"

	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// statsJSON is the stable wire shape of a session's cumulative Stats:
// the pass and kernel counters plus the engine summary in
// engine.Stats's own stable encoding. This is the repository's one
// marshal path for session accounting — ccbench -kernel-o reports
// (every rank's) and ccserve's /stats endpoint both embed it —
// so the shape is golden-file tested and must only grow
// backward-compatibly.
type statsJSON struct {
	Runs    int          `json:"runs"`
	Kernels int          `json:"kernels"`
	Engine  engine.Stats `json:"engine"`
}

// MarshalJSON encodes the stats in the stable shape
// {"runs","kernels","engine":{"rounds","msgs","bytes","wall_ns"}}.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{Runs: s.Runs, Kernels: s.Kernels, Engine: s.Engine})
}

// UnmarshalJSON decodes the stable shape written by MarshalJSON.
func (s *Stats) UnmarshalJSON(data []byte) error {
	var sj statsJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return err
	}
	*s = Stats{Runs: sj.Runs, Kernels: sj.Kernels, Engine: sj.Engine}
	return nil
}
