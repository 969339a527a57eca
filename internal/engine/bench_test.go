package engine

import (
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// BenchmarkRouter measures the router hot path in isolation: send with
// bandwidth accounting + shard scatter + round flip. One op is a full
// round in which every node sends to `fanout` destinations (see
// routerRound). Steady state must be zero allocations per op (and
// therefore per message): boxes retain capacity across rounds.
func BenchmarkRouter(b *testing.B) {
	const (
		n      = 256
		shards = 8
		fanout = 16
	)
	rt := newRouter(n, 1, shards)
	// Warm up so every box of both banks reaches steady-state capacity.
	for i := 0; i < 3; i++ {
		routerRound(b, rt, n, fanout)
	}
	b.ReportAllocs()
	b.SetBytes(int64(n * fanout * 16)) // a Message is 16 bytes, written once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routerRound(b, rt, n, fanout)
	}
	b.StopTimer()
	msgs := float64(n * fanout)
	b.ReportMetric(msgs*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(msgs*float64(b.N)), "ns/msg")
}

// BenchmarkRouterMulticast is BenchmarkRouter's round with one
// Multicast per node to the same fanout destinations (see
// multicastRound) instead of one Send each. Steady state must be zero
// allocations per op.
func BenchmarkRouterMulticast(b *testing.B) {
	const (
		n      = 256
		shards = 8
		fanout = 16
	)
	rt := newRouter(n, 1, shards)
	dsts := successors(n, fanout)
	for i := 0; i < 3; i++ {
		multicastRound(b, rt, dsts)
	}
	b.ReportAllocs()
	b.SetBytes(int64(n * fanout * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multicastRound(b, rt, dsts)
	}
	b.StopTimer()
	msgs := float64(n * fanout)
	b.ReportMetric(msgs*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(msgs*float64(b.N)), "ns/msg")
}

// floodBenchNode sends to a fixed fanout of ring successors each round.
type floodBenchNode struct {
	n, fanout, rounds int
}

func (fn *floodBenchNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	if int(r) >= fn.rounds {
		return nil
	}
	id := int(ctx.ID())
	for k := 1; k <= fn.fanout; k++ {
		if err := ctx.Send(core.NodeID((id+k)%fn.n), uint64(id)); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkEngineFlood measures the full engine (parallel handlers,
// barriers, scatter, stats) under an all-nodes-flooding workload.
func BenchmarkEngineFlood(b *testing.B) {
	const (
		n      = 256
		fanout = 32
		rounds = 16
	)
	b.ReportAllocs()
	var totalMsgs uint64
	for i := 0; i < b.N; i++ {
		nodes := make([]Node, n)
		for j := range nodes {
			nodes[j] = &floodBenchNode{n: n, fanout: fanout, rounds: rounds}
		}
		stats, err := RunOnce(nodes, Options{MaxRounds: rounds + 2})
		if err != nil {
			b.Fatal(err)
		}
		totalMsgs += stats.TotalMsgs
	}
	b.ReportMetric(float64(totalMsgs)/b.Elapsed().Seconds(), "msgs/s")
}
