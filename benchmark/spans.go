package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a
// layer. Parent is the id of the span that caused it (-1 for a root)
// and Op the operation (one run, query, or cycle) it belongs to, so
// every span of one operation shares an identifier.
type span struct {
	ID, Parent, Op int
	Name, Layer    string
	Start, End     time.Duration // since the tracer's epoch
	Args           map[string]any
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untimed half of a traced run and
// every end-to-end run stay free of tracing cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name, layer string, parent, op int, start, end time.Time, args map[string]any) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Args: args,
	})
	return id
}

// begin reserves a span whose end is not known yet, so children can
// name it as their parent; finish closes it.
func (t *tracer) begin(name, layer string, parent, op int) int {
	now := time.Now()
	return t.add(name, layer, parent, op, now, now, nil)
}

// finish sets the end (and args) of a span opened by begin.
func (t *tracer) finish(id int, args map[string]any) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Args = args
	t.mu.Unlock()
}

// extend moves a span's end forward to end; the round tap grows a pass
// span this way as the pass's rounds arrive.
func (t *tracer) extend(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = max(t.spans[id].End, end.Sub(t.epoch))
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Layer] += (s.End - s.Start) - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and Perfetto load a file of these directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// layerLanes fixes one Chrome thread row per layer, top to bottom in
// ladder order.
var layerLanes = map[string]int{
	"bench": 0, "client": 1, "server": 2, "clique": 3, "algo": 4,
	"hopset": 5, "matmul": 6, "engine": 7, "graph": 8,
}

// writeChrome writes every recorded span to path as Chrome trace-event
// JSON, one lane per layer, with id/parent/op in each event's args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Tid: layerLanes[s.Layer], Args: args,
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
