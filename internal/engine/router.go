// The message router is the performance core of the simulator.
//
// Layout: every scheduler worker owns one row of n boxes, and a send
// appends its Message straight into the sending worker's box for the
// destination — no lock, no per-message allocation (boxes keep their
// capacity across rounds), one write per word. Worker 0's row is the
// fill bank that becomes next round's inboxes: nodes read round r's
// bank while round r+1's fills, and finishRound swaps the two. At the
// round barrier the n destinations are partitioned into S contiguous
// shards and each shard goroutine, for the destinations it exclusively
// owns, empties the bank just read and appends the boxes of workers
// 1..W-1 behind worker 0's — with one worker there is nothing to copy.
//
// Bandwidth accounting: the Congested Clique allows B = O(log n) bits
// per directed link per round, which the simulator fixes at one
// core.WordBits-bit message. The router rejects a second send on a link
// in one round with a *BandwidthError instead of silently dropping. A
// node's sends all happen on one worker inside one Round call, so each
// worker marks the links of the node it is bound to in n words of its
// own, stamped with the binding: rebinding the worker or flipping the
// round is one stamp increment, not an O(n) clear. Send queues one word
// on one link; Multicast queues one word on many, checking each link
// against the same marks.
package engine

import (
	"fmt"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// Message is a delivered simulator message: one Theta(log n)-bit
// payload word plus its sender. The destination is implicit in which
// inbox the message sits in.
type Message struct {
	Src     core.NodeID
	Payload uint64
}

// BandwidthError reports a second send on one directed link in one
// round.
type BandwidthError struct {
	Src, Dst core.NodeID
	Round    core.Round
}

// Error formats the violated link and round.
func (e *BandwidthError) Error() string {
	return fmt.Sprintf("engine: bandwidth cap exceeded on link %d->%d in round %d (one message per link per round)",
		e.Src, e.Dst, e.Round)
}

// Ctx is a node's handle to the communication substrate. One Ctx exists
// per worker; the engine rebinds it to each node before invoking its
// handler, so handlers must not retain it across rounds.
type Ctx struct {
	rt *router
	// box[dst] collects what this worker's nodes send dst this round,
	// in node-ID then send order.
	box [][]Message
	// used[dst] == stamp iff src has sent dst this round; a value below
	// stamp was left by an earlier binding and reads as unused. stamp
	// only grows, so no mark outlives its binding.
	used  []uint64
	stamp uint64
	src   core.NodeID
	sent  uint64
	_     [48]byte // pad to 128 bytes: workers' Ctxs never share a cache line
}

// ID returns the node the context is currently bound to.
func (c *Ctx) ID() core.NodeID { return c.src }

// NumNodes returns the clique size n.
func (c *Ctx) NumNodes() int { return c.rt.n }

// bind points the context at src and clears its link marks.
func (c *Ctx) bind(src core.NodeID) {
	c.src = src
	c.stamp++
}

// Send queues one payload word to dst for delivery next round. It
// returns a *BandwidthError if src already sent dst a message this
// round, or an error for an invalid destination (out of range or
// self). The message is not queued when an error is returned.
//
// Send and Multicast are the two places the link budget is enforced,
// over one stamp table. All sends of a node must happen on the
// goroutine running its handler (the engine runs each node on exactly
// one worker), which is what makes the per-worker counts and boxes
// data-race free without atomics.
func (c *Ctx) Send(dst core.NodeID, payload uint64) error {
	if uint64(dst) >= uint64(len(c.used)) || dst == c.src {
		return c.invalid(dst)
	}
	if c.used[dst] == c.stamp {
		return &BandwidthError{Src: c.src, Dst: dst, Round: c.rt.round}
	}
	c.used[dst] = c.stamp
	c.box[dst] = append(c.box[dst], Message{Src: c.src, Payload: payload})
	c.sent++
	return nil
}

// Multicast queues one payload word to every destination in dsts for
// delivery next round: exactly what one Send per destination would
// queue, in dsts order, except that the sender's own ID is skipped. It
// stops at the first destination Send would refuse — a link already
// used this round, by Send or Multicast, or an out-of-range ID — and
// returns the error Send would, with the destinations before it
// queued.
func (c *Ctx) Multicast(dsts []core.NodeID, payload uint64) error {
	used, stamp, src := c.used, c.stamp, c.src
	box := c.box[:len(used)]
	msg := Message{Src: src, Payload: payload}
	var err error
	queued := uint64(0)
	for _, dst := range dsts {
		if dst == src {
			continue
		}
		if uint64(dst) >= uint64(len(used)) {
			err = c.invalid(dst)
			break
		}
		if used[dst] == stamp {
			err = &BandwidthError{Src: src, Dst: dst, Round: c.rt.round}
			break
		}
		used[dst] = stamp
		box[dst] = append(box[dst], msg)
		queued++
	}
	c.sent += queued
	return err
}

// invalid is the error for a send to dst that is out of range or the
// sender itself.
func (c *Ctx) invalid(dst core.NodeID) error {
	return fmt.Errorf("engine: invalid destination %d for sender %d (n=%d)", dst, c.src, c.rt.n)
}

// router owns all message storage for one engine instance. It is a
// passive data structure: all parallelism (which worker sends through
// which Ctx, which goroutine scatters which shard) is orchestrated by
// the engine, so every method here is allocation-free on the
// steady-state hot path.
type router struct {
	n      int
	shards int

	// bounds[s] is the first destination owned by shard s;
	// shard s owns dsts in [bounds[s], bounds[s+1]).
	bounds []int32

	// ctxs[w] is worker w's sending side. ctxs[0].box is also the fill
	// bank (see fill).
	ctxs []*Ctx

	// inbox is the bank nodes read this round. Swapped with the fill
	// bank by finishRound.
	inbox [][]Message

	round core.Round
}

func newRouter(n, workers, shards int) *router {
	if shards < 1 {
		shards = 1
	}
	if shards > n && n > 0 {
		shards = n
	}
	rt := &router{
		n:      n,
		shards: shards,
		bounds: make([]int32, shards+1),
		ctxs:   make([]*Ctx, workers),
		inbox:  make([][]Message, n),
	}
	for s := 0; s <= shards; s++ {
		rt.bounds[s] = int32((s*n + shards - 1) / shards)
	}
	for w := range rt.ctxs {
		rt.ctxs[w] = &Ctx{
			rt:    rt,
			box:   make([][]Message, n),
			used:  make([]uint64, n),
			stamp: 1,
		}
	}
	return rt
}

// fill is the bank being filled for next round: worker 0's boxes.
// Worker 0's nodes have the lowest IDs, so what the other workers and
// Binding.Deliver append behind them keeps every inbox in
// source-ascending order.
func (rt *router) fill() [][]Message { return rt.ctxs[0].box }

// scatterShard completes the fill bank for the destinations of shard s:
// it empties the bank just read (finishRound makes it the next fill
// bank) and moves the boxes of workers 1..W-1 behind worker 0's. Only
// one goroutine may run scatterShard(s) for a given s per round;
// distinct shards touch disjoint destination ranges, so all shards
// scatter in parallel without locks. Iterating workers in index order
// (and each worker having run its nodes in ID order) makes inbox
// ordering fully deterministic regardless of scheduling.
func (rt *router) scatterShard(s int) {
	fill, rest := rt.fill(), rt.ctxs[1:]
	for d := rt.bounds[s]; d < rt.bounds[s+1]; d++ {
		rt.inbox[d] = rt.inbox[d][:0]
		for _, c := range rest {
			if box := c.box[d]; len(box) > 0 {
				fill[d] = append(fill[d], box...)
				c.box[d] = box[:0]
			}
		}
	}
}

// reset rewinds the router to a pristine round 0 for engine reuse: the
// inbox bank and every worker's boxes are truncated (capacity kept, so
// reuse allocates nothing), every stamp advances so all link marks
// read as unused, and the round counter restarts. A run that ended in
// quiescence leaves nothing to clear, but a run cut short by a handler
// error or context cancellation can leave queued messages and
// part-used links behind.
func (rt *router) reset() {
	for d := range rt.inbox {
		rt.inbox[d] = rt.inbox[d][:0]
	}
	for _, c := range rt.ctxs {
		for d := range c.box {
			c.box[d] = c.box[d][:0]
		}
		c.stamp++
	}
	rt.round = 0
}

// finishRound swaps the inbox and fill banks and advances every
// worker's stamp, so a Ctx that stays bound to one node across the flip
// still starts the round with unused links. Must be called after every
// shard's scatterShard has completed.
func (rt *router) finishRound() {
	rt.inbox, rt.ctxs[0].box = rt.ctxs[0].box, rt.inbox
	for _, c := range rt.ctxs {
		c.stamp++
	}
	rt.round++
}
