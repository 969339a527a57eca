package engine

import (
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/trace"
)

// TestPhaseTimingsAlwaysOn checks that the per-phase RoundStats fields
// are populated even without a tracer (they are cheap wall-clock
// deltas), while BarrierWait stays 0 — it is sampled only under Trace.
func TestPhaseTimingsAlwaysOn(t *testing.T) {
	const n, hops = 8, 12
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &ringNode{n: n, hops: hops}
	}
	var perRound []RoundStats
	if _, err := RunOnce(nodes, Options{MaxRounds: hops + 8, RoundHook: func(rs RoundStats) { perRound = append(perRound, rs) }}); err != nil {
		t.Fatal(err)
	}
	for _, rs := range perRound {
		if rs.Compute <= 0 {
			t.Fatalf("round %d: Compute = %v, want > 0", rs.Round, rs.Compute)
		}
		if rs.Exchange <= 0 {
			t.Fatalf("round %d: Exchange = %v, want > 0", rs.Round, rs.Exchange)
		}
		// MemTransport completes the round with the parallel scatter.
		if rs.Scatter <= 0 || rs.Scatter > rs.Exchange {
			t.Fatalf("round %d: Scatter = %v, want in (0, Exchange=%v]", rs.Round, rs.Scatter, rs.Exchange)
		}
		if rs.Compute+rs.Exchange > rs.Wall {
			t.Fatalf("round %d: Compute %v + Exchange %v exceeds Wall %v", rs.Round, rs.Compute, rs.Exchange, rs.Wall)
		}
		if rs.BarrierWait != 0 {
			t.Fatalf("round %d: BarrierWait = %v without a tracer, want 0", rs.Round, rs.BarrierWait)
		}
	}
}

// TestTraceSpansEveryRound runs a traced ring and checks the recorder
// holds the round envelope plus the phase breakdown for every round,
// with the arg-word encoding the exporter documents.
func TestTraceSpansEveryRound(t *testing.T) {
	const n, hops = 8, 12
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &ringNode{n: n, hops: hops}
	}
	rec := trace.NewRecorder(1024)
	var perRound []RoundStats
	stats, err := RunOnce(nodes, Options{MaxRounds: hops + 8, Trace: rec, RoundHook: func(rs RoundStats) { perRound = append(perRound, rs) }})
	if err != nil {
		t.Fatal(err)
	}

	byCat := map[string][]trace.Span{}
	for _, s := range rec.Spans() {
		byCat[s.Cat] = append(byCat[s.Cat], s)
	}
	if got := len(byCat[trace.CatRound]); got != stats.Rounds {
		t.Fatalf("%d round spans for %d rounds", got, stats.Rounds)
	}
	// MemTransport rounds break down into compute + exchange + scatter.
	if got := len(byCat[trace.CatPhase]); got != 3*stats.Rounds {
		t.Fatalf("%d phase spans for %d rounds, want %d", got, stats.Rounds, 3*stats.Rounds)
	}

	var totalMsgs uint64
	for i, s := range byCat[trace.CatRound] {
		if s.Round != int64(i) {
			t.Fatalf("round span %d carries Round %d", i, s.Round)
		}
		if s.Lane != trace.LaneRounds || s.Name != trace.NameRound {
			t.Fatalf("round span %d: lane %d name %q", i, s.Lane, s.Name)
		}
		if s.Dur <= 0 {
			t.Fatalf("round span %d: Dur %d, want > 0", i, s.Dur)
		}
		totalMsgs += s.Arg
	}
	if totalMsgs != stats.TotalMsgs {
		t.Fatalf("round spans carry %d msgs, stats say %d", totalMsgs, stats.TotalMsgs)
	}

	names := map[string]int{}
	for _, s := range byCat[trace.CatPhase] {
		names[s.Name]++
		if s.Lane != trace.LanePhases {
			t.Fatalf("phase span %q on lane %d", s.Name, s.Lane)
		}
	}
	for _, want := range []string{trace.NameCompute, trace.NameExchange, trace.NameScatter} {
		if names[want] != stats.Rounds {
			t.Fatalf("%d %q spans for %d rounds", names[want], want, stats.Rounds)
		}
	}

	// BarrierWait sampling is on under Trace: the compute spans' arg
	// words carry it, and the stats mirror them.
	sawWait := false
	for _, rs := range perRound {
		if rs.BarrierWait > 0 {
			sawWait = true
		}
		if rs.BarrierWait > rs.Compute {
			t.Fatalf("round %d: BarrierWait %v exceeds Compute %v", rs.Round, rs.BarrierWait, rs.Compute)
		}
	}
	if !sawWait {
		t.Fatal("no round sampled a positive BarrierWait under Trace")
	}
}

// TestTraceMultiRankLoopback checks the rank-merge path the binaries
// use: one recorder per rank of a loopback cluster, all feeding one
// timeline with distinct rank tags.
func TestTraceMultiRankLoopback(t *testing.T) {
	const n, ranks = 8, 2
	transports, err := LoopbackCluster(ranks, "unix", 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*trace.Recorder, ranks)
	for i := 0; i < ranks; i++ {
		recs[i] = trace.NewRecorder(256)
		recs[i].SetRank(i)
	}

	// Bind blocks until all peers connect, so every rank's New must run
	// concurrently — the same shape ccbench's loopback legs have.
	errs := make(chan error, ranks)
	for i := 0; i < ranks; i++ {
		go func(i int) {
			eng, err := New(n, Options{Transport: transports[i], Trace: recs[i], MaxRounds: 64})
			if err != nil {
				errs <- err
				return
			}
			defer eng.Close()
			nodes := make([]Node, n)
			for j := range nodes {
				nodes[j] = &ringNode{n: n, hops: 10}
			}
			_, err = eng.Run(t.Context(), nodes)
			errs <- err
		}(i)
	}
	for i := 0; i < ranks; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, rec := range recs {
		if rec.Len() == 0 {
			t.Fatalf("rank %d recorded no spans", i)
		}
		if rec.Rank() != i {
			t.Fatalf("rank %d recorder tagged %d", i, rec.Rank())
		}
	}
}

func BenchmarkTracedRound(b *testing.B) {
	const n = 64
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
			if r == 0 {
				return ctx.Send((ctx.ID()+1)%core.NodeID(n), 1)
			}
			return nil
		})
	}
	rec := trace.NewRecorder(0)
	e, err := New(n, Options{Trace: rec})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(b.Context(), nodes); err != nil {
			b.Fatal(err)
		}
	}
}
