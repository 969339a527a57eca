package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func span(name, cat string, lane int32, start, dur int64) Span {
	return Span{Name: name, Cat: cat, Lane: lane, Start: start, Dur: dur, Round: start, Arg: uint64(dur)}
}

func TestRecorderOrderAndLen(t *testing.T) {
	r := NewRecorder(8)
	for i := int64(0); i < 5; i++ {
		r.Record(span(NameRound, CatRound, LaneRounds, i, 1))
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 5, 0", r.Len(), r.Dropped())
	}
	got := r.Spans()
	for i, s := range got {
		if s.Start != int64(i) {
			t.Fatalf("span %d has Start %d, want %d (chronological order)", i, s.Start, i)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 10; i++ {
		r.Record(span(NameRound, CatRound, LaneRounds, i, 1))
	}
	if r.Len() != 4 {
		t.Fatalf("Len=%d, want the ring capacity 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped=%d, want 6", r.Dropped())
	}
	got := r.Spans()
	want := []int64{6, 7, 8, 9}
	for i, s := range got {
		if s.Start != want[i] {
			t.Fatalf("span %d has Start %d, want %d (oldest overwritten first)", i, s.Start, want[i])
		}
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	if cap := len(r.buf); cap != DefaultCapacity {
		t.Fatalf("capacity %d, want DefaultCapacity %d", cap, DefaultCapacity)
	}
}

func TestSinceEpoch(t *testing.T) {
	r := NewRecorder(4)
	at := r.Epoch().Add(1500 * time.Nanosecond)
	if got := r.Since(at); got != 1500 {
		t.Fatalf("Since = %d, want 1500", got)
	}
}

// TestRecordNoAllocs pins the hot-path discipline: recording a span
// into a warm ring must not allocate.
func TestRecordNoAllocs(t *testing.T) {
	r := NewRecorder(1024)
	s := span(NameCompute, CatPhase, LanePhases, 1, 2)
	allocs := testing.AllocsPerRun(100, func() { r.Record(s) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per call, want 0", allocs)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 100; i++ {
				r.Record(span(NameRound, CatRound, LaneRounds, i, 1))
				r.Spans()
				r.Len()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 256 {
		t.Fatalf("Len=%d, want full ring 256", r.Len())
	}
}

// chromeDoc mirrors the exported JSON object shape.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		Spans   int    `json:"spans"`
		Dropped uint64 `json:"dropped"`
	} `json:"otherData"`
	TraceEvents []struct {
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeMergesRanks(t *testing.T) {
	r0 := NewRecorder(16)
	r1 := NewRecorder(16)
	r1.SetRank(1)
	r0.Record(Span{Name: NameRound, Cat: CatRound, Lane: LaneRounds, Start: 1000, Dur: 2000, Round: 0, Arg: 7})
	r0.Record(Span{Name: NameCompute, Cat: CatPhase, Lane: LanePhases, Start: 1000, Dur: 1500, Round: 0, Arg: 300})
	r1.Record(Span{Name: "bfs", Cat: CatPass, Lane: LanePasses, Start: 500, Dur: 4000, Round: 2, Arg: 9, Arg2: 31})

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r0, r1); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData.Spans != 3 || doc.OtherData.Dropped != 0 {
		t.Fatalf("otherData spans=%d dropped=%d, want 3, 0", doc.OtherData.Spans, doc.OtherData.Dropped)
	}

	pids := map[int]bool{}
	var rounds, phases, passes int
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case CatRound:
			rounds++
			if ev.Ts != 1.0 || ev.Dur != 2.0 {
				t.Fatalf("round span ts=%v dur=%v, want microseconds 1, 2", ev.Ts, ev.Dur)
			}
			if ev.Args["msgs"] != float64(7) || ev.Args["round"] != float64(0) {
				t.Fatalf("round span args = %v", ev.Args)
			}
		case CatPhase:
			phases++
			if ev.Args["barrier_wait_ns"] != float64(300) {
				t.Fatalf("compute span args = %v", ev.Args)
			}
		case CatPass:
			passes++
			if ev.Pid != 1 || ev.Name != "bfs" {
				t.Fatalf("pass span pid=%d name=%q, want rank 1, bfs", ev.Pid, ev.Name)
			}
			if ev.Args["pass"] != float64(2) || ev.Args["rounds"] != float64(9) || ev.Args["words"] != float64(31) {
				t.Fatalf("pass span args = %v", ev.Args)
			}
		}
	}
	if rounds != 1 || phases != 1 || passes != 1 {
		t.Fatalf("span counts rounds=%d phases=%d passes=%d, want 1 each", rounds, phases, passes)
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("expected both rank lanes (pid 0 and 1) in the merged export, got %v", pids)
	}

	// Metadata: both ranks carry process and thread names.
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			if n, ok := ev.Args["name"].(string); ok {
				names[n]++
			}
		}
	}
	for _, want := range []string{"rank 0", "rank 1", "rounds", "phases", "passes"} {
		if names[want] == 0 {
			t.Fatalf("missing metadata name %q in %v", want, names)
		}
	}
}

func TestWriteChromeDroppedCount(t *testing.T) {
	r := NewRecorder(2)
	for i := int64(0); i < 5; i++ {
		r.Record(span(NameRound, CatRound, LaneRounds, i, 1))
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.OtherData.Dropped != 3 {
		t.Fatalf("dropped=%d, want 3", doc.OtherData.Dropped)
	}
}

func ExampleWriteChrome() {
	r := NewRecorder(8)
	r.Record(Span{Name: NameRound, Cat: CatRound, Lane: LaneRounds, Start: 0, Dur: 1000, Round: 0, Arg: 4})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		panic(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		panic(err)
	}
	fmt.Println("valid:", doc["displayTimeUnit"])
	// Output: valid: ms
}
