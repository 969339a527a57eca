// Chrome trace-event JSON export. The format is the "JSON Object
// Format" of the Trace Event spec: {"traceEvents": [...]} where each
// event is a complete ("ph":"X") duration with microsecond ts/dur,
// pid = cluster rank, tid = lane. Perfetto and chrome://tracing load
// the file directly; tools/tracestat summarizes it.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// laneNames lists the well-known lanes and their Chrome thread names,
// in rendering order (a slice, not a map, so exports are diffable).
var laneNames = []struct {
	lane int32
	name string
}{
	{LaneRounds, "rounds"},
	{LanePhases, "phases"},
	{LanePasses, "passes"},
}

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}

// writeArgs renders the span's fixed arg words under the keys the
// span's (Cat, Name) assigns them — the inverse of the encoding
// documented on Span.Arg and Span.Arg2.
func writeArgs(w io.Writer, s Span) {
	switch {
	case s.Cat == CatRound:
		fmt.Fprintf(w, `{"round":%d,"msgs":%d}`, s.Round, s.Arg)
	case s.Cat == CatPass:
		fmt.Fprintf(w, `{"pass":%d,"rounds":%d,"words":%d}`, s.Round, s.Arg, s.Arg2)
	case s.Cat == CatPhase && s.Name == NameCompute:
		fmt.Fprintf(w, `{"round":%d,"barrier_wait_ns":%d}`, s.Round, s.Arg)
	default:
		fmt.Fprintf(w, `{"round":%d}`, s.Round)
	}
}

// WriteChrome writes the recorders' spans as one Chrome trace-event
// JSON document: every recorder contributes one process lane (pid =
// its rank), with its spans' lanes as named threads. Passing the
// per-rank recorders of one loopback cluster therefore merges the
// ranks into a single timeline. Spans are emitted in each recorder's
// recording order; the format does not require global ordering.
func WriteChrome(w io.Writer, recs ...*Recorder) error {
	bw := bufio.NewWriter(w)
	var dropped uint64
	spans := 0
	for _, r := range recs {
		dropped += r.Dropped()
		spans += r.Len()
	}
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"doryp20\",\"spans\":%d,\"dropped\":%d},\n", spans, dropped)
	fmt.Fprintf(bw, "\"traceEvents\":[")
	first := true
	emit := func(f string, args ...any) {
		if !first {
			bw.WriteString(",\n") //nolint:errcheck // error surfaces at Flush
		}
		first = false
		fmt.Fprintf(bw, f, args...)
	}
	for _, r := range recs {
		pid := r.Rank()
		emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
			pid, jstr(fmt.Sprintf("rank %d", pid)))
		emit(`{"ph":"M","pid":%d,"tid":0,"name":"process_sort_index","args":{"sort_index":%d}}`, pid, pid)
		for _, ln := range laneNames {
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`, pid, ln.lane, jstr(ln.name))
			emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, pid, ln.lane, ln.lane)
		}
		for _, s := range r.Spans() {
			emit(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":%.3f,"dur":%.3f,"args":`,
				pid, s.Lane, jstr(s.Name), jstr(s.Cat),
				float64(s.Start)/1e3, float64(s.Dur)/1e3)
			writeArgs(bw, s)
			bw.WriteString("}") //nolint:errcheck // error surfaces at Flush
		}
	}
	fmt.Fprintf(bw, "]}\n")
	return bw.Flush()
}

// WriteChromeFile is WriteChrome to a freshly created file — the shared
// export path of the ccbench -trace flag.
func WriteChromeFile(path string, recs ...*Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := WriteChrome(f, recs...); err != nil {
		f.Close()
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
