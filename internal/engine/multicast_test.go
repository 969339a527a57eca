package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// mcTraffic is a deterministic workload that sends each round's word
// either by one Multicast or by one Send per destination: in each round
// r < rounds, node v sends one word to a list of distinct destinations
// that lists v itself (which Multicast skips), then a second word by
// Send to a destination not on the list. Payloads are a pure function
// of (v, r), and every delivered message is logged.
type mcTraffic struct {
	n, rounds int
	multicast bool
	log       []recEntry
}

// mcDsts returns node v's destination list for round r: up to six
// distinct nodes, unsorted, with v among them.
func mcDsts(v, r, n int) []core.NodeID {
	var dsts []core.NodeID
	seen := make([]bool, n)
	for i := 0; i < 6; i++ {
		o := (r*3 + i*i*2 + i) % n
		if i == 3 {
			o = 0
		}
		if !seen[o] {
			seen[o] = true
			dsts = append(dsts, core.NodeID((v+o)%n))
		}
	}
	return dsts
}

func (mt *mcTraffic) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	for _, m := range inbox {
		mt.log = append(mt.log, recEntry{round: r, src: m.Src, payload: m.Payload})
	}
	if int(r) >= mt.rounds {
		return nil
	}
	v := int(ctx.ID())
	dsts := mcDsts(v, int(r), mt.n)
	w := uint64(v)*100003 + uint64(r)*31 + 7
	if mt.multicast {
		if err := ctx.Multicast(dsts, w); err != nil {
			return err
		}
	} else {
		for _, dst := range dsts {
			if dst == ctx.ID() {
				continue
			}
			if err := ctx.Send(dst, w); err != nil {
				return err
			}
		}
	}
	listed := make([]bool, mt.n)
	for _, dst := range dsts {
		listed[dst] = true
	}
	for o := mt.n - 1; o > 0; o-- {
		if dst := (v + o) % mt.n; !listed[dst] {
			return ctx.Send(core.NodeID(dst), w+1)
		}
	}
	return nil
}

// runMC runs the workload on one rank's engine and returns the logs of
// the nodes it executes (nil for the others), its digest chain and its
// stats.
func runMC(n, rounds int, multicast bool, tr Transport) ([][]recEntry, []uint64, *Stats, error) {
	nodes := make([]Node, n)
	mts := make([]*mcTraffic, n)
	for i := range nodes {
		mts[i] = &mcTraffic{n: n, rounds: rounds, multicast: multicast}
		nodes[i] = mts[i]
	}
	e, err := New(n, confOpts(tr))
	if err != nil {
		tr.Close()
		return nil, nil, nil, err
	}
	defer e.Close()
	stats, err := e.Run(context.Background(), nodes)
	if err != nil {
		return nil, nil, nil, err
	}
	logs := make([][]recEntry, n)
	lo, hi := e.Partition()
	for i := lo; i < hi; i++ {
		logs[i] = mts[i].log
	}
	return logs, e.Digests(), stats, nil
}

// TestMulticastMatchesSends: one Multicast per word delivers exactly
// what one Send per destination does — the same inboxes in the same
// order, the same message count and the same replay digests — on the
// in-process router and on every multi-rank transport.
func TestMulticastMatchesSends(t *testing.T) {
	const n, rounds = 17, 6
	wantLogs, wantDigests, wantStats, err := runMC(n, rounds, false, NewMemTransport())
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.TotalMsgs == 0 {
		t.Fatal("workload sent no messages")
	}
	for _, c := range conformanceCases() {
		t.Run(fmt.Sprintf("%s-r%d", c.transport, c.ranks), func(t *testing.T) {
			gotLogs := make([][]recEntry, n)
			gotDigests := make([][]uint64, c.ranks)
			gotStats := make([]*Stats, c.ranks)
			errs := runCluster(t, c, func(rank int, tr Transport) error {
				logs, digests, stats, err := runMC(n, rounds, true, tr)
				if err != nil {
					return err
				}
				for v, log := range logs {
					if log != nil {
						gotLogs[v] = log
					}
				}
				gotDigests[rank], gotStats[rank] = digests, stats
				return nil
			})
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			for v := range gotLogs {
				if !reflect.DeepEqual(gotLogs[v], wantLogs[v]) {
					t.Fatalf("node %d receives by Multicast\n %v\nby Send\n %v", v, gotLogs[v], wantLogs[v])
				}
			}
			for rank := range gotDigests {
				if !reflect.DeepEqual(gotDigests[rank], wantDigests) {
					t.Errorf("rank %d: Multicast's digest chain differs from Send's", rank)
				}
				if got := gotStats[rank]; got.TotalMsgs != wantStats.TotalMsgs || got.Rounds != wantStats.Rounds {
					t.Errorf("rank %d: Multicast bills (msgs %d, rounds %d), Send (%d, %d)",
						rank, got.TotalMsgs, got.Rounds, wantStats.TotalMsgs, wantStats.Rounds)
				}
			}
		})
	}
}

// TestMulticastContract drives one Ctx of a bare router: the sender is
// skipped, a destination listed twice or a link Send already used this
// round returns *BandwidthError, an out-of-range destination errors,
// and each failing call queues exactly the destinations before the one
// it refuses.
func TestMulticastContract(t *testing.T) {
	const n = 8
	rt := newRouter(n, 1, 1)
	c := rt.ctxs[0]
	queued := func() []core.NodeID {
		var dsts []core.NodeID
		for d, box := range c.box {
			for range box {
				dsts = append(dsts, core.NodeID(d))
			}
		}
		return dsts
	}
	fresh := func() {
		for d := range c.box {
			c.box[d] = c.box[d][:0]
		}
		c.sent = 0
		c.bind(3)
	}

	fresh()
	if err := c.Multicast([]core.NodeID{5, 3, 0, 7}, 9); err != nil {
		t.Fatalf("Multicast listing its sender: %v", err)
	}
	if got, want := queued(), []core.NodeID{0, 5, 7}; !reflect.DeepEqual(got, want) || c.sent != 3 {
		t.Fatalf("queued to %v (sent %d), want %v (3)", got, c.sent, want)
	}
	for _, d := range []int{0, 5, 7} {
		if m := c.box[d][0]; m != (Message{Src: 3, Payload: 9}) {
			t.Errorf("box %d holds %+v", d, m)
		}
	}

	for _, tc := range []struct {
		name   string
		send   core.NodeID // a Send made first, if >= 0
		dsts   []core.NodeID
		queued []core.NodeID
		bad    core.NodeID
	}{
		{"duplicate", -1, []core.NodeID{1, 6, 1, 2}, []core.NodeID{1, 6}, 1},
		{"after Send", 6, []core.NodeID{1, 6, 2}, []core.NodeID{1, 6}, 6},
	} {
		fresh()
		if tc.send >= 0 {
			if err := c.Send(tc.send, 1); err != nil {
				t.Fatal(err)
			}
		}
		err := c.Multicast(tc.dsts, 9)
		var bwe *BandwidthError
		if !errors.As(err, &bwe) || bwe.Src != 3 || bwe.Dst != tc.bad {
			t.Errorf("%s: err = %v, want *BandwidthError on 3->%d", tc.name, err, tc.bad)
		}
		if got := queued(); !reflect.DeepEqual(got, tc.queued) || c.sent != uint64(len(tc.queued)) {
			t.Errorf("%s: queued to %v (sent %d), want %v", tc.name, got, c.sent, tc.queued)
		}
	}

	for _, bad := range []core.NodeID{n, -1} {
		fresh()
		err := c.Multicast([]core.NodeID{2, bad, 4}, 9)
		if err == nil || !strings.Contains(err.Error(), "invalid destination") {
			t.Errorf("destination %d: err = %v, want invalid destination", bad, err)
		}
		if got := queued(); !reflect.DeepEqual(got, []core.NodeID{2}) || c.sent != 1 {
			t.Errorf("destination %d: queued to %v (sent %d), want [2]", bad, got, c.sent)
		}
	}

	// A later round's stamp frees every link again.
	fresh()
	if err := c.Multicast([]core.NodeID{1, 2}, 9); err != nil {
		t.Fatal(err)
	}
	rt.scatterShard(0)
	rt.finishRound()
	if err := c.Multicast([]core.NodeID{1, 2}, 9); err != nil {
		t.Errorf("the next round's Multicast on the same links: %v", err)
	}
}

// multicastRound is routerRound's round shape with one Multicast per
// node: every node sends one word to its fanout ring successors, the
// lists in dsts.
func multicastRound(t testing.TB, rt *router, dsts [][]core.NodeID) {
	t.Helper()
	c := rt.ctxs[0]
	for src, list := range dsts {
		c.bind(core.NodeID(src))
		if err := c.Multicast(list, uint64(src)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < rt.shards; s++ {
		rt.scatterShard(s)
	}
	rt.finishRound()
}

// successors returns each node's fanout ring successors.
func successors(n, fanout int) [][]core.NodeID {
	dsts := make([][]core.NodeID, n)
	for src := range dsts {
		for k := 1; k <= fanout; k++ {
			dsts[src] = append(dsts[src], core.NodeID((src+k)%n))
		}
	}
	return dsts
}

// TestMulticastZeroAllocs: once the boxes have grown, a round of
// Multicasts allocates nothing.
func TestMulticastZeroAllocs(t *testing.T) {
	const n, shards, fanout = 64, 4, 16
	rt := newRouter(n, 1, shards)
	dsts := successors(n, fanout)
	for i := 0; i < 3; i++ {
		multicastRound(t, rt, dsts)
	}
	if allocs := testing.AllocsPerRun(20, func() { multicastRound(t, rt, dsts) }); allocs != 0 {
		t.Errorf("a warm Multicast round allocates %.1f objects, want 0", allocs)
	}
}
