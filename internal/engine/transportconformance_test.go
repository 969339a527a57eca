// Cross-transport conformance suite: the executable form of the
// Transport contract (see transport.go). Every transport
// NewTransportCluster builds is driven through the same table of properties — exactly-once delivery
// in the router's deterministic per-destination order, global
// quiescence and stats, loud *BandwidthError surfacing at cap+1 and
// silence at the cap, a lockstep exit at the round bound, and
// bit-identical replay digest chains — with the single-rank
// MemTransport as ground truth. A transport that passes this suite is interchangeable with
// the in-process router for every kernel in the repository.
package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// confCase names one transport and the rank count the suite
// exercises it at. Rank counts are chosen to force uneven partitions
// (n not divisible by ranks) and cross-rank traffic.
type confCase struct {
	transport string
	ranks     int
}

// conformanceCases enumerates every transport NewTransportCluster
// builds, so a new one is automatically under contract.
func conformanceCases() []confCase {
	var cases []confCase
	for _, name := range transportNames() {
		ranks := 2
		switch name {
		case "mem":
			ranks = 1
		case "socket-tcp":
			ranks = 3
		}
		cases = append(cases, confCase{transport: name, ranks: ranks})
	}
	return cases
}

// runCluster builds a c.ranks-rank cluster of c.transport and drives
// body once per rank on its own goroutine — engine construction
// included, because multi-rank Bind handshakes block until every peer
// arrives. Each body owns its engine (and must Close it). The returned
// slice holds body's error per rank.
func runCluster(t *testing.T, c confCase, body func(rank int, tr Transport) error) []error {
	t.Helper()
	trs, err := NewTransportCluster(c.transport, c.ranks)
	if err != nil {
		t.Fatalf("NewTransportCluster(%q, %d): %v", c.transport, c.ranks, err)
	}
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(rank, trs[rank])
		}(i)
	}
	wg.Wait()
	return errs
}

// confTraffic is the deterministic conformance workload: in each round
// r < rounds, node v sends one word to (v + r%(n-1) + 1) % n and — when
// it is a distinct destination — one to (v + (2*r+3)%(n-1) + 1) % n,
// payloads a pure function of (v, r). Handler state is empty, so a
// fresh node set replays the traffic exactly.
type confTraffic struct {
	n, rounds int
}

func (tn *confTraffic) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	if int(r) >= tn.rounds || tn.n < 2 {
		return nil
	}
	v := uint64(ctx.ID())
	d1 := (ctx.ID() + core.NodeID(int(r)%(tn.n-1)+1)) % core.NodeID(tn.n)
	if err := ctx.Send(d1, v*100003+uint64(r)*31+7); err != nil {
		return err
	}
	d2 := (ctx.ID() + core.NodeID((2*int(r)+3)%(tn.n-1)+1)) % core.NodeID(tn.n)
	if d2 != d1 {
		return ctx.Send(d2, v*89+uint64(r)*1009+3)
	}
	return nil
}

// recEntry is one delivered message as a recorder node saw it.
type recEntry struct {
	round   core.Round
	src     core.NodeID
	payload uint64
}

// recNode generates confTraffic and records every delivered message in
// arrival order — the observable the delivery test compares across
// transports.
type recNode struct {
	confTraffic
	log []recEntry
}

func (rn *recNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	for _, m := range inbox {
		rn.log = append(rn.log, recEntry{round: r, src: m.Src, payload: m.Payload})
	}
	return rn.confTraffic.Round(ctx, r, inbox)
}

// confOpts is the engine configuration the suite runs under: digests
// on, the bit-identity observable.
func confOpts(tr Transport) Options {
	return Options{Transport: tr, RecordDigests: true}
}

// memGroundTruth runs the recorder workload on a fresh single-rank
// MemTransport engine and returns the per-node delivery logs, the
// digest chain, and the run stats.
func memGroundTruth(t *testing.T, n, rounds int) ([][]recEntry, []uint64, *Stats) {
	t.Helper()
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		recs[i] = &recNode{confTraffic: confTraffic{n: n, rounds: rounds}}
		nodes[i] = recs[i]
	}
	e, err := New(n, confOpts(NewMemTransport()))
	if err != nil {
		t.Fatalf("mem engine: %v", err)
	}
	defer e.Close()
	stats, err := e.Run(context.Background(), nodes)
	if err != nil {
		t.Fatalf("mem run: %v", err)
	}
	logs := make([][]recEntry, n)
	for i, rn := range recs {
		logs[i] = rn.log
	}
	return logs, e.Digests(), stats
}

// TestTransportConformanceDelivery checks, for every registered
// transport, that each node receives exactly the messages the
// in-process router delivers — same multiset, same per-destination
// order, same rounds (exactly-once, deterministic order) — and that
// digest chains, global message totals, and round counts are
// bit-identical to the MemTransport ground truth on every rank.
func TestTransportConformanceDelivery(t *testing.T) {
	const n, rounds = 17, 5
	wantLogs, wantDigests, wantStats := memGroundTruth(t, n, rounds)
	for _, c := range conformanceCases() {
		t.Run(fmt.Sprintf("%s-r%d", c.transport, c.ranks), func(t *testing.T) {
			gotLogs := make([][]recEntry, n)
			gotDigests := make([][]uint64, c.ranks)
			gotStats := make([]*Stats, c.ranks)
			errs := runCluster(t, c, func(rank int, tr Transport) error {
				nodes := make([]Node, n)
				recs := make([]*recNode, n)
				for i := range nodes {
					recs[i] = &recNode{confTraffic: confTraffic{n: n, rounds: rounds}}
					nodes[i] = recs[i]
				}
				e, err := New(n, confOpts(tr))
				if err != nil {
					tr.Close()
					return err
				}
				defer e.Close()
				stats, err := e.Run(context.Background(), nodes)
				if err != nil {
					return err
				}
				gotStats[rank] = stats
				gotDigests[rank] = e.Digests()
				lo, hi := e.Partition()
				if wlo, whi := RankBounds(n, rank, c.ranks); lo != wlo || hi != whi {
					return fmt.Errorf("partition [%d,%d), want [%d,%d)", lo, hi, wlo, whi)
				}
				for i := lo; i < hi; i++ {
					gotLogs[i] = recs[i].log
				}
				return nil
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			for v := 0; v < n; v++ {
				if !reflect.DeepEqual(gotLogs[v], wantLogs[v]) {
					t.Fatalf("node %d delivery log diverges from mem ground truth:\n got %v\nwant %v", v, gotLogs[v], wantLogs[v])
				}
			}
			for rank := 0; rank < c.ranks; rank++ {
				if !reflect.DeepEqual(gotDigests[rank], wantDigests) {
					t.Errorf("rank %d digest chain diverges from mem ground truth", rank)
				}
				if got := gotStats[rank]; got.TotalMsgs != wantStats.TotalMsgs || got.Rounds != wantStats.Rounds {
					t.Errorf("rank %d stats (msgs %d, rounds %d), want (%d, %d)",
						rank, got.TotalMsgs, got.Rounds, wantStats.TotalMsgs, wantStats.Rounds)
				}
			}
		})
	}
}

// capNode sends burst messages from node 0 to node n-1 in round 0 and
// records node n-1's delivered count.
type capNode struct {
	n, burst int
	got      int
}

func (cn *capNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	if int(ctx.ID()) == cn.n-1 {
		cn.got += len(inbox)
	}
	if r != 0 || ctx.ID() != 0 {
		return nil
	}
	for i := 0; i < cn.burst; i++ {
		if err := ctx.Send(core.NodeID(cn.n-1), uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

// TestTransportConformanceBandwidth checks the budget boundary on every
// transport: one message on a link is delivered with no error on any
// rank; a second message on the link in the same round surfaces as a
// *BandwidthError on the sending rank and a loud (non-nil) error on
// every peer rank — never a hang, never silent loss.
func TestTransportConformanceBandwidth(t *testing.T) {
	const n = 10
	for _, c := range conformanceCases() {
		for _, over := range []bool{false, true} {
			burst := 1
			label := "at-cap"
			if over {
				burst, label = 2, "cap-plus-1"
			}
			t.Run(fmt.Sprintf("%s-r%d-%s", c.transport, c.ranks, label), func(t *testing.T) {
				got := make([]int, c.ranks)
				errs := runCluster(t, c, func(rank int, tr Transport) error {
					nodes := make([]Node, n)
					caps := make([]*capNode, n)
					for i := range nodes {
						caps[i] = &capNode{n: n, burst: burst}
						nodes[i] = caps[i]
					}
					e, err := New(n, Options{Transport: tr})
					if err != nil {
						tr.Close()
						return err
					}
					defer e.Close()
					_, err = e.Run(context.Background(), nodes)
					got[rank] = caps[n-1].got
					return err
				})
				if !over {
					for rank, err := range errs {
						if err != nil {
							t.Fatalf("rank %d: burst at cap errored: %v", rank, err)
						}
					}
					lastOwner := c.ranks - 1
					if got[lastOwner] != 1 {
						t.Errorf("node %d received %d messages, want 1", n-1, got[lastOwner])
					}
					return
				}
				// Node 0 lives on rank 0: its engine must surface the
				// typed budget violation; every other rank must fail
				// loudly rather than block on the broken round.
				var bw *BandwidthError
				if !errors.As(errs[0], &bw) {
					t.Fatalf("rank 0: err = %v, want a *BandwidthError", errs[0])
				}
				if bw.Src != 0 || int(bw.Dst) != n-1 {
					t.Errorf("BandwidthError = %+v, want src 0, dst %d", bw, n-1)
				}
				for rank := 1; rank < c.ranks; rank++ {
					if errs[rank] == nil {
						t.Errorf("rank %d: peer of a budget-violating rank returned nil error", rank)
					}
				}
			})
		}
	}
}

// TestTransportConformanceBoundedRun checks the round bound on every
// transport: a run bounded at round pause stops with ErrMaxRounds on
// every rank at the same barrier — a deterministic global event, so
// every rank reports identical Stats and none aborts — and the same
// engines then run a fresh node set from round 0 to quiescence with a
// digest chain bit-identical to an uninterrupted MemTransport run. An
// abort would have broken the aborting rank's transport and failed the
// peers' next exchange, so the second run passing on every rank is the
// no-abort check.
func TestTransportConformanceBoundedRun(t *testing.T) {
	const n, rounds, pause = 17, 8, 3
	_, wantDigests, _ := memGroundTruth(t, n, rounds)
	mkNodes := func() []Node {
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &confTraffic{n: n, rounds: rounds}
		}
		return nodes
	}
	for _, c := range conformanceCases() {
		t.Run(fmt.Sprintf("%s-r%d", c.transport, c.ranks), func(t *testing.T) {
			bounded := make([]*Stats, c.ranks)
			gotDigests := make([][]uint64, c.ranks)
			errs := runCluster(t, c, func(rank int, tr Transport) error {
				e, err := New(n, confOpts(tr))
				if err != nil {
					tr.Close()
					return err
				}
				defer e.Close()
				st, err := e.RunBounded(context.Background(), mkNodes(), pause)
				if !errors.Is(err, ErrMaxRounds) {
					return fmt.Errorf("bounded run: err = %v, want ErrMaxRounds", err)
				}
				bounded[rank] = st
				if _, err := e.RunBounded(context.Background(), mkNodes(), 0); err != nil {
					return fmt.Errorf("fresh run after the bounded one: %w", err)
				}
				gotDigests[rank] = e.Digests()
				return nil
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			for rank := 0; rank < c.ranks; rank++ {
				got, want := bounded[rank], bounded[0]
				if got.Rounds != pause || got.TotalMsgs != want.TotalMsgs || got.TotalBytes != want.TotalBytes {
					t.Errorf("rank %d bounded stats (rounds %d, msgs %d, bytes %d), want (%d, %d, %d)",
						rank, got.Rounds, got.TotalMsgs, got.TotalBytes, pause, want.TotalMsgs, want.TotalBytes)
				}
				if !reflect.DeepEqual(gotDigests[rank], wantDigests) {
					t.Errorf("rank %d digest chain after the bounded run diverges from the mem ground truth:\n got %v\nwant %v",
						rank, gotDigests[rank], wantDigests)
				}
			}
		})
	}
}

// TestTransportConformanceGather checks AllGatherRows on every
// transport: each rank fills only its own partition's rows of an
// n x rowLen slab, and after one gather every rank holds the complete
// slab. MemTransport's no-op trivially satisfies this (its partition
// is everything).
func TestTransportConformanceGather(t *testing.T) {
	const n, rowLen = 17, 3
	fill := func(v, j int) int64 { return int64(v*1000 + j + 1) }
	for _, c := range conformanceCases() {
		t.Run(fmt.Sprintf("%s-r%d", c.transport, c.ranks), func(t *testing.T) {
			flats := make([][]int64, c.ranks)
			errs := runCluster(t, c, func(rank int, tr Transport) error {
				e, err := New(n, confOpts(tr))
				if err != nil {
					tr.Close()
					return err
				}
				defer e.Close()
				lo, hi := e.Partition()
				flat := make([]int64, n*rowLen)
				for v := lo; v < hi; v++ {
					for j := 0; j < rowLen; j++ {
						flat[v*rowLen+j] = fill(v, j)
					}
				}
				if err := e.Transport().AllGatherRows(flat, rowLen); err != nil {
					return err
				}
				flats[rank] = flat
				return nil
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			for rank, flat := range flats {
				for v := 0; v < n; v++ {
					for j := 0; j < rowLen; j++ {
						if got, want := flat[v*rowLen+j], fill(v, j); got != want {
							t.Fatalf("rank %d: gathered[%d][%d] = %d, want %d", rank, v, j, got, want)
						}
					}
				}
			}
		})
	}
}
