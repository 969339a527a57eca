package engine

import (
	"encoding/json"
	"time"
)

// statsJSON is the stable wire shape of Stats: the cumulative scalars,
// with the wall clock in integer nanoseconds. Round-by-round streams
// belong to RoundHook taps, not to summary documents.
type statsJSON struct {
	Rounds int    `json:"rounds"`
	Msgs   uint64 `json:"msgs"`
	Bytes  uint64 `json:"bytes"`
	WallNs int64  `json:"wall_ns"`
}

// MarshalJSON encodes the stats in the repository's one stable JSON
// shape — {"rounds","msgs","bytes","wall_ns"} — shared by ccbench
// kernel reports and ccserve's /stats responses.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{
		Rounds: s.Rounds,
		Msgs:   s.TotalMsgs,
		Bytes:  s.TotalBytes,
		WallNs: int64(s.Wall),
	})
}

// UnmarshalJSON decodes the stable shape written by MarshalJSON.
func (s *Stats) UnmarshalJSON(data []byte) error {
	var sj statsJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return err
	}
	*s = Stats{
		Rounds:     sj.Rounds,
		TotalMsgs:  sj.Msgs,
		TotalBytes: sj.Bytes,
		Wall:       time.Duration(sj.WallNs),
	}
	return nil
}
