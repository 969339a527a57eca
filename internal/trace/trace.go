// Package trace is the repository's low-overhead tracing substrate: a
// preallocated ring-buffer span recorder the engine, the clique
// session, and the binaries feed timing spans into, plus a Chrome
// trace-event JSON exporter (chrome.go) whose output loads directly in
// Perfetto / chrome://tracing and summarizes through tools/tracestat.
//
// Design discipline mirrors the engine's testHooks: tracing must cost
// nothing measurable when disabled. Every producer holds a *Recorder
// that is nil when tracing is off and pays exactly one nil check per
// potential span; when tracing is on, Record copies one fixed-size
// Span value into a preallocated ring under a mutex — no maps, no
// interfaces, no per-span allocation. Span names and categories are
// package constants (static strings), so the hot path never formats.
//
// Lanes and ranks: a Span carries a Lane (rendered as a Chrome thread)
// and the Recorder carries a rank (rendered as a Chrome process), so a
// multi-rank run — one Recorder per rank — merges into one timeline
// with one process lane per rank. Recorders created together share a
// wall-clock epoch to microsecond precision, which is what makes the
// merged timeline coherent for in-process loopback clusters.
package trace

import (
	"sync"
	"time"
)

// Lanes are the Chrome "thread" rows of one rank's timeline, in
// rendering order.
const (
	// LaneRounds carries one envelope span per executed engine round.
	LaneRounds = 0
	// LanePhases carries the per-round phase breakdown: compute, then
	// exchange with the in-process scatter nested inside it.
	LanePhases = 1
	// LanePasses carries one span per clique kernel pass.
	LanePasses = 2
)

// Categories group spans for summarization (tools/tracestat keys its
// shares on these).
const (
	// CatRound marks whole-round envelope spans.
	CatRound = "round"
	// CatPhase marks intra-round phase spans (compute/scatter/exchange).
	CatPhase = "phase"
	// CatPass marks clique kernel pass spans.
	CatPass = "pass"
)

// Static span names for the engine's per-round phases. Producers must
// use constants (or otherwise long-lived strings) as span names — the
// recorder stores the string header only.
const (
	// NameRound is the whole-round envelope (Arg = messages routed).
	NameRound = "round"
	// NameCompute is phase A, all local node handlers to the barrier
	// (Arg = mean worker idle at the barrier, nanoseconds).
	NameCompute = "compute"
	// NameScatter is the in-process parallel scatter portion of the
	// exchange (zero-length and omitted on socket transports).
	NameScatter = "scatter"
	// NameExchange is phase B, the transport completing the round.
	NameExchange = "exchange"
)

// Span is one recorded interval. The fields are fixed-size on purpose:
// recording must not allocate, so the free-form "args" of the Chrome
// format are reduced to one Round/pass index and two arg words whose
// meaning is keyed on (Cat, Name) — see the name constants and
// chrome.go's args rendering.
type Span struct {
	// Name labels the span; use a static string.
	Name string
	// Cat is the span's category (CatRound, CatPhase, CatPass).
	Cat string
	// Lane is the timeline row (Chrome tid) the span renders in.
	Lane int32
	// Start is the span's start in nanoseconds since the recorder's
	// epoch (use Recorder.Since).
	Start int64
	// Dur is the span's duration in nanoseconds.
	Dur int64
	// Round is the engine round or kernel pass index, -1 when not
	// applicable.
	Round int64
	// Arg is one free counter word; its meaning is keyed on (Cat, Name):
	// messages for round spans, barrier-wait nanoseconds for compute
	// spans, rounds for pass spans.
	Arg uint64
	// Arg2 is a second counter word: words routed for pass spans, unused
	// elsewhere.
	Arg2 uint64
}

// DefaultCapacity is the ring size NewRecorder selects for capacity
// <= 0: at the engine's three spans per round it holds the trailing
// ~21k rounds (a Span is under 100 bytes, so the ring stays a few MiB).
const DefaultCapacity = 1 << 16

// Recorder accumulates spans into a preallocated ring buffer. When the
// ring is full the oldest spans are overwritten (and counted in
// Dropped), so a bounded recorder can trace an unbounded run and keep
// the most recent window. All methods are safe for concurrent use.
type Recorder struct {
	epoch time.Time

	mu      sync.Mutex
	rank    int
	buf     []Span
	next    int // ring cursor: index of the next write
	filled  int // live spans, <= len(buf)
	dropped uint64
}

// NewRecorder builds a recorder with a preallocated ring of the given
// span capacity (<= 0 selects DefaultCapacity). The epoch — the zero
// point of every Span.Start — is the call time, so recorders created
// together (one per rank of a loopback cluster) share one timeline.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		epoch: time.Now(),
		buf:   make([]Span, capacity),
	}
}

// SetRank tags every span of this recorder with a cluster rank,
// rendered as the Chrome process lane. The default rank is 0.
func (r *Recorder) SetRank(rank int) {
	r.mu.Lock()
	r.rank = rank
	r.mu.Unlock()
}

// Rank returns the recorder's cluster rank tag.
func (r *Recorder) Rank() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rank
}

// Epoch returns the recorder's time zero.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Since converts an absolute time to Span.Start nanoseconds.
func (r *Recorder) Since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Record appends one span to the ring, overwriting the oldest span
// when full. It never allocates.
func (r *Recorder) Record(s Span) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.filled < len(r.buf) {
		r.filled++
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Len returns the number of live spans in the ring.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled
}

// Dropped returns how many spans were overwritten because the ring
// was full — nonzero means the exported trace covers only the most
// recent window of the run.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns a copy of the live spans in recording order (oldest
// first) — chronological for single-goroutine producers like the
// engine's run loop.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.filled)
	if r.filled == len(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[:r.filled]...)
	}
	return out
}
