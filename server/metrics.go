package server

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// Query kinds index the per-kind latency histograms and carry their
// Prometheus label values.
const (
	kindSSSP = iota
	kindKSource
	kindApprox
	kindReachable
	numKinds
)

// kindLabels are the {kind=...} label values, in kind index order.
var kindLabels = [numKinds]string{"sssp", "ksource", "approx-sssp", "reachable"}

// durationBuckets are the histogram upper bounds in seconds: a
// log-spaced 1-2.5-5 ladder from 500µs to 30s (plus the implicit +Inf
// bucket). Fixed at compile time so observation is an array index and
// the zero-value histogram is usable.
var durationBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a lock-free fixed-bucket duration histogram. counts[i]
// is the non-cumulative population of bucket i (counts[len] is +Inf);
// the renderer accumulates, which keeps the exposed cumulative series
// monotone even against concurrent observes.
type histogram struct {
	counts   [len(durationBuckets) + 1]atomic.Uint64
	sumNanos atomic.Uint64
}

// observe adds one duration sample.
func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	i := 0
	for i < len(durationBuckets) && secs > durationBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(uint64(d))
}

// writePromSeries renders the histogram's series (_bucket/_sum/_count)
// for one family and label prefix ("" or `kind="sssp",`). The HELP and
// TYPE header is the caller's job — a labeled family writes it once
// before its first series. _count is derived from the same cumulative
// walk as the +Inf bucket, so the two always agree.
func (h *histogram) writePromSeries(w io.Writer, family, labels string) error {
	var cum uint64
	for i, ub := range durationBuckets {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n",
			family, labels, strconv.FormatFloat(ub, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(durationBuckets)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", family, labels, cum); err != nil {
		return err
	}
	sum := float64(h.sumNanos.Load()) / 1e9
	if labels != "" {
		labels = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", family, labels,
		strconv.FormatFloat(sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", family, labels, cum)
	return err
}

// Metrics is the daemon's observability surface: a fixed set of
// counters and gauges updated lock-free on the serving paths and
// rendered in Prometheus text exposition format by WritePrometheus
// (the GET /metrics handler). Engine traffic streams in through
// ObserveRound, the clique.WithRoundHook tap every pooled session is
// created with, so rounds/messages/words accumulate live while a
// kernel runs.
type Metrics struct {
	// Engine traffic, streamed per round from every pooled session.
	// words is a real folded counter (not an alias of msgs at render
	// time): the engine routes exactly one budgeted payload word per
	// message, and exporting the fold keeps /metrics honest if that
	// framing ever changes.
	rounds    atomic.Uint64
	msgs      atomic.Uint64
	words     atomic.Uint64
	bytes     atomic.Uint64
	wallNanos atomic.Uint64

	// Query admission, by kind.
	ssspQueries      atomic.Uint64
	ksourceQueries   atomic.Uint64
	approxQueries    atomic.Uint64
	reachableQueries atomic.Uint64
	queryErrors      atomic.Uint64
	// Queries whose own request context ended before they were
	// answered: a client that left is not a failure.
	queriesCancelled atomic.Uint64

	// Kernel executions: every session run the daemon performs. Under
	// coalescing, kernelRuns grows slower than approxQueries.
	kernelRuns atomic.Uint64

	// Coalescer outcomes.
	batches        atomic.Uint64
	batchedQueries atomic.Uint64
	batchMax       atomic.Uint64

	// Hopset-augmented adjacency cache outcomes.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// Gauges.
	sessionsActive atomic.Int64
	graphsLoaded   atomic.Int64
	inflight       atomic.Int64

	// Latency distributions: end-to-end service time per admitted
	// query, by kind; per-kernel-run engine wall time (the accumulated
	// RoundStats.Wall of one run's passes); per approx-sssp query, the
	// wait from admission to its batch being formed; and per lease
	// granted, the wait for a graph's session lease.
	queryDur     [numKinds]histogram
	kernelWall   histogram
	coalesceWait histogram
	leaseWait    histogram
}

// ObserveRound folds one engine round's stats into the traffic
// counters; it is installed as the RoundHook of every pooled session.
func (m *Metrics) ObserveRound(rs engine.RoundStats) {
	m.rounds.Add(1)
	m.msgs.Add(rs.Msgs)
	m.words.Add(rs.Msgs) // one budgeted word per routed message
	m.bytes.Add(rs.Bytes)
	m.wallNanos.Add(uint64(rs.Wall))
}

// observeQuery records one admitted query's end-to-end service time.
func (m *Metrics) observeQuery(kind int, d time.Duration) {
	m.queryDur[kind].observe(d)
}

// observeBatch records one coalesced kernel run of size k.
func (m *Metrics) observeBatch(k int, cacheHit bool) {
	m.batches.Add(1)
	m.batchedQueries.Add(uint64(k))
	for {
		cur := m.batchMax.Load()
		if uint64(k) <= cur || m.batchMax.CompareAndSwap(cur, uint64(k)) {
			break
		}
	}
	if cacheHit {
		m.cacheHits.Add(1)
	} else {
		m.cacheMisses.Add(1)
	}
}

// Snapshot is a point-in-time copy of every counter, for tests and
// the /stats handler.
type Snapshot struct {
	Rounds, Msgs, Words, Bytes, WallNanos      uint64
	SSSPQueries, KSourceQueries, ApproxQueries uint64
	ReachableQueries                           uint64
	QueryErrors, QueriesCancelled, KernelRuns  uint64
	Batches, BatchedQueries, BatchMax          uint64
	CacheHits, CacheMisses                     uint64
	SessionsActive, GraphsLoaded, Inflight     int64
}

// Snapshot returns a consistent-enough copy of the counters (each
// counter is read atomically; the set is not a transaction).
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Rounds: m.rounds.Load(), Msgs: m.msgs.Load(), Words: m.words.Load(),
		Bytes: m.bytes.Load(), WallNanos: m.wallNanos.Load(),
		SSSPQueries: m.ssspQueries.Load(), KSourceQueries: m.ksourceQueries.Load(),
		ApproxQueries: m.approxQueries.Load(), ReachableQueries: m.reachableQueries.Load(),
		QueryErrors: m.queryErrors.Load(), QueriesCancelled: m.queriesCancelled.Load(),
		KernelRuns: m.kernelRuns.Load(),
		Batches:    m.batches.Load(), BatchedQueries: m.batchedQueries.Load(),
		BatchMax:  m.batchMax.Load(),
		CacheHits: m.cacheHits.Load(), CacheMisses: m.cacheMisses.Load(),
		SessionsActive: m.sessionsActive.Load(), GraphsLoaded: m.graphsLoaded.Load(),
		Inflight: m.inflight.Load(),
	}
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, in a fixed order so scrapes are diffable.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	type metric struct {
		name, help, typ string
		value           any
	}
	for _, mt := range []metric{
		{"ccserve_engine_rounds_total", "Engine rounds executed across all pooled sessions.", "counter", s.Rounds},
		{"ccserve_engine_messages_total", "Messages routed across all pooled sessions.", "counter", s.Msgs},
		{"ccserve_engine_words_total", "Budgeted payload words routed (one per message).", "counter", s.Words},
		{"ccserve_engine_bytes_total", "Payload bytes routed across all pooled sessions.", "counter", s.Bytes},
		{"ccserve_engine_round_wall_seconds_total", "Accumulated per-round wall time across all pooled sessions.", "counter",
			strconv.FormatFloat(float64(s.WallNanos)/1e9, 'g', -1, 64)},
		{"ccserve_queries_total{kind=\"sssp\"}", "Admitted queries by kind.", "counter", s.SSSPQueries},
		{"ccserve_queries_total{kind=\"ksource\"}", "", "", s.KSourceQueries},
		{"ccserve_queries_total{kind=\"approx-sssp\"}", "", "", s.ApproxQueries},
		{"ccserve_queries_total{kind=\"reachable\"}", "", "", s.ReachableQueries},
		{"ccserve_query_errors_total", "Queries that failed after admission.", "counter", s.QueryErrors},
		{"ccserve_queries_cancelled_total", "Queries abandoned by their client before they were answered.", "counter", s.QueriesCancelled},
		{"ccserve_kernel_runs_total", "Kernel executions on pooled sessions (coalescing makes this trail approx-sssp queries).", "counter", s.KernelRuns},
		{"ccserve_coalesced_batches_total", "Batched approx-sssp kernel runs.", "counter", s.Batches},
		{"ccserve_coalesced_queries_total", "Approx-sssp queries served through batches.", "counter", s.BatchedQueries},
		{"ccserve_coalesced_batch_max", "Largest batch size observed.", "gauge", s.BatchMax},
		{"ccserve_hopset_cache_hits_total", "Approx batches served from the hopset-augmented adjacency cache (zero stage-1 rounds).", "counter", s.CacheHits},
		{"ccserve_hopset_cache_misses_total", "Approx batches that had to construct a hopset.", "counter", s.CacheMisses},
		{"ccserve_sessions_active", "Warm clique sessions in the pool.", "gauge", s.SessionsActive},
		{"ccserve_graphs_loaded", "Graphs currently loaded.", "gauge", s.GraphsLoaded},
		{"ccserve_queries_inflight", "Queries currently being served.", "gauge", s.Inflight},
	} {
		if mt.help != "" {
			name := mt.name
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, mt.help, name, mt.typ); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %v\n", mt.name, mt.value); err != nil {
			return err
		}
	}

	// Histogram families: the per-kind query latency distribution, the
	// per-kernel-run engine wall time, and the coalesce and lease waits.
	// HELP/TYPE once per family, then every label series in fixed order.
	if _, err := fmt.Fprintf(w, "# HELP ccserve_query_duration_seconds End-to-end service time of admitted queries, by kind.\n# TYPE ccserve_query_duration_seconds histogram\n"); err != nil {
		return err
	}
	for kind, label := range kindLabels {
		labels := fmt.Sprintf("kind=%q,", label)
		if err := m.queryDur[kind].writePromSeries(w, "ccserve_query_duration_seconds", labels); err != nil {
			return err
		}
	}
	for _, h := range []struct {
		family, help string
		h            *histogram
	}{
		{"ccserve_kernel_wall_seconds", "Engine wall time of one kernel run (accumulated RoundStats.Wall of its passes).", &m.kernelWall},
		{"ccserve_coalesce_wait_seconds", "Wait of one approx-sssp query from admission to its batch being formed.", &m.coalesceWait},
		{"ccserve_lease_wait_seconds", "Wait for a graph's session lease, per lease granted.", &m.leaseWait},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.family, h.help, h.family); err != nil {
			return err
		}
		if err := h.h.writePromSeries(w, h.family, ""); err != nil {
			return err
		}
	}
	return nil
}
