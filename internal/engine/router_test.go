package engine

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// propNode sends a pseudo-random batch of tagged messages each round
// for `rounds` rounds and records everything it sends and receives.
// Payloads encode (src, round, sequence) so the test can assert the
// exactly-once property per message instance.
type propNode struct {
	n      int
	rounds int
	rng    *rand.Rand

	mu       *sync.Mutex
	sentLog  map[uint64]int // payload -> times sent
	recvLog  map[uint64]int // payload -> times received
	recvedAt map[uint64]core.Round
}

func packTag(src core.NodeID, round core.Round, seq int) uint64 {
	return uint64(src)<<40 | uint64(round)<<20 | uint64(seq)
}

func (p *propNode) Round(ctx *Ctx, r core.Round, inbox []Message) error {
	p.mu.Lock()
	for _, m := range inbox {
		p.recvLog[m.Payload]++
		p.recvedAt[m.Payload] = r
	}
	p.mu.Unlock()
	if int(r) >= p.rounds {
		return nil
	}
	// Send to a random subset of distinct destinations, one message
	// each (the default budget allows exactly one per link).
	k := p.rng.Intn(8)
	seen := make(map[core.NodeID]bool, k)
	for seq := 0; seq < k; seq++ {
		dst := core.NodeID(p.rng.Intn(p.n))
		if dst == ctx.ID() || seen[dst] {
			continue
		}
		seen[dst] = true
		tag := packTag(ctx.ID(), r, seq)
		if err := ctx.Send(dst, tag); err != nil {
			return err
		}
		p.mu.Lock()
		p.sentLog[tag]++
		p.mu.Unlock()
	}
	return nil
}

// TestExactlyOnceDelivery is the router's core property test: every
// message sent in round r is delivered exactly once, in round r+1, even
// with all workers sending concurrently. Run under -race in CI.
func TestExactlyOnceDelivery(t *testing.T) {
	const n, rounds = 97, 20 // prime n => uneven shard boundaries
	var mu sync.Mutex
	sent := map[uint64]int{}
	recv := map[uint64]int{}
	recvAt := map[uint64]core.Round{}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &propNode{
			n: n, rounds: rounds,
			rng:     rand.New(rand.NewSource(int64(1000 + i))),
			mu:      &mu,
			sentLog: sent, recvLog: recv, recvedAt: recvAt,
		}
	}
	stats, err := RunOnce(nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) == 0 {
		t.Fatal("property test sent no messages")
	}
	for tag, ns := range sent {
		if ns != 1 {
			t.Fatalf("tag %x sent %d times, want 1", tag, ns)
		}
		if recv[tag] != 1 {
			t.Fatalf("tag %x delivered %d times, want exactly once", tag, recv[tag])
		}
		sentRound := core.Round(tag >> 20 & 0xfffff)
		if got := recvAt[tag]; got != sentRound+1 {
			t.Fatalf("tag %x sent in round %d but delivered in round %d", tag, sentRound, got)
		}
	}
	for tag := range recv {
		if sent[tag] != 1 {
			t.Fatalf("phantom delivery of tag %x that was never sent", tag)
		}
	}
	var total uint64
	for _, n := range sent {
		total += uint64(n)
	}
	if stats.TotalMsgs != total {
		t.Errorf("stats.TotalMsgs = %d, want %d", stats.TotalMsgs, total)
	}
}

type funcNode func(ctx *Ctx, r core.Round, inbox []Message) error

func (f funcNode) Round(ctx *Ctx, r core.Round, inbox []Message) error { return f(ctx, r, inbox) }

// TestBandwidthCapViolation checks that exceeding the per-link budget
// returns a *BandwidthError from Send (and propagates out of Run)
// rather than silently dropping the message.
func TestBandwidthCapViolation(t *testing.T) {
	nodes := make([]Node, 4)
	var sendErr error
	for i := range nodes {
		id := core.NodeID(i)
		nodes[i] = funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
			if id != 0 || r != 0 {
				return nil
			}
			if err := ctx.Send(1, 7); err != nil {
				return err
			}
			sendErr = ctx.Send(1, 8) // second message on the same link, same round
			return sendErr
		})
	}
	_, err := RunOnce(nodes, Options{})
	var bwe *BandwidthError
	if !errors.As(sendErr, &bwe) {
		t.Fatalf("second Send returned %v, want *BandwidthError", sendErr)
	}
	if bwe.Src != 0 || bwe.Dst != 1 {
		t.Errorf("BandwidthError = %+v, want src=0 dst=1", bwe)
	}
	if !errors.As(err, &bwe) {
		t.Errorf("Run returned %v, want wrapped *BandwidthError", err)
	}
}

// TestInvalidDestination checks self-sends and out-of-range IDs error.
func TestInvalidDestination(t *testing.T) {
	nodes := []Node{
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error {
			if err := ctx.Send(ctx.ID(), 1); err == nil {
				t.Error("self-send unexpectedly allowed")
			}
			if err := ctx.Send(core.NodeID(2), 1); err == nil {
				t.Error("out-of-range send unexpectedly allowed")
			}
			if err := ctx.Send(core.NodeID(-1), 1); err == nil {
				t.Error("negative destination unexpectedly allowed")
			}
			return nil
		}),
		funcNode(func(ctx *Ctx, r core.Round, inbox []Message) error { return nil }),
	}
	if _, err := RunOnce(nodes, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestShardBoundsCoverage: the shard ranges are contiguous, ascending,
// and cover every destination exactly once, for awkward n/shard
// combinations.
func TestShardBoundsCoverage(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{1, 1}, {7, 3}, {97, 8}, {100, 7}, {64, 64}, {5, 16},
	} {
		rt := newRouter(tc.n, 1, tc.shards)
		if got := int(rt.bounds[0]); got != 0 {
			t.Fatalf("n=%d shards=%d: bounds[0]=%d", tc.n, tc.shards, got)
		}
		if got := int(rt.bounds[rt.shards]); got != tc.n {
			t.Fatalf("n=%d shards=%d: bounds[last]=%d, want %d", tc.n, tc.shards, got, tc.n)
		}
		for s := 0; s < rt.shards; s++ {
			if rt.bounds[s] > rt.bounds[s+1] {
				t.Fatalf("n=%d shards=%d: shard %d has descending bounds [%d,%d)",
					tc.n, tc.shards, s, rt.bounds[s], rt.bounds[s+1])
			}
		}
	}
}

// TestCtxIsOneCacheLinePair: workers write their own Ctx on every send,
// so each must fill exactly 128 bytes and never share a cache line.
func TestCtxIsOneCacheLinePair(t *testing.T) {
	if got := unsafe.Sizeof(Ctx{}); got != 128 {
		t.Errorf("sizeof(Ctx) = %d bytes, want 128", got)
	}
}
