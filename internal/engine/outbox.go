package engine

import "github.com/paper-repo-growth/doryp20/internal/core"

// Outbox is the batched-exchange helper for all-to-all communication
// patterns: a node queues an arbitrary multiset of (destination, word)
// messages and drains it across as many rounds as the bandwidth budget
// requires, sending one word to each destination per round. This is
// the balanced (Lenzen-style) pacing that lets higher layers express
// "send this whole row to these nodes" without ever tripping a
// *BandwidthError.
//
// Words are queued two ways: Push copies individual words into
// per-destination buffers, and PushShared enqueues a borrowed read-only
// slice by reference — the broadcast case (the same row streamed to
// many destinations) then costs O(1) memory per destination instead of
// one copy each. For a given destination, copied words are delivered
// in Push order, then shared segments in PushShared order.
//
// An Outbox belongs to exactly one node and must only be touched from
// that node's Round handler (the same single-goroutine-per-round
// discipline the engine already imposes on node state).
type Outbox struct {
	// pending[dst] holds copied words for dst; head[dst] indexes the
	// first unsent one. Slices retain capacity across drain/refill
	// cycles, so steady-state Push/Flush does not allocate.
	pending [][]uint64
	head    []int
	// shared[dst] is a FIFO of borrowed segments; soff[dst] indexes the
	// first unsent word of the front segment. Callers must not mutate a
	// segment until the Outbox has drained it.
	shared [][][]uint64
	soff   []int
	// active lists the destinations with unsent words, each exactly
	// once.
	active []core.NodeID
	total  int
}

// NewOutbox returns an empty Outbox for a clique of n nodes.
func NewOutbox(n int) *Outbox {
	return &Outbox{
		pending: make([][]uint64, n),
		head:    make([]int, n),
		shared:  make([][][]uint64, n),
		soff:    make([]int, n),
	}
}

// hasUnsent reports whether dst still has queued words (and therefore
// sits on the active list).
func (o *Outbox) hasUnsent(dst core.NodeID) bool {
	return o.head[dst] < len(o.pending[dst]) || len(o.shared[dst]) > 0
}

// activate compacts dst's drained buffers and puts it on the active
// list. Callers must have checked !hasUnsent(dst).
func (o *Outbox) activate(dst core.NodeID) {
	o.pending[dst] = o.pending[dst][:0]
	o.head[dst] = 0
	o.active = append(o.active, dst)
}

// Push queues one word for dst (copied). It panics on an out-of-range
// destination; self-sends are the caller's responsibility to avoid
// (the router rejects them at Flush time).
func (o *Outbox) Push(dst core.NodeID, word uint64) {
	if !o.hasUnsent(dst) {
		o.activate(dst)
	}
	o.pending[dst] = append(o.pending[dst], word)
	o.total++
}

// PushShared queues words for dst by reference, without copying — the
// right call when broadcasting one large slice (a matrix row) to many
// destinations. The slice must stay unmodified until the Outbox drains;
// it is read, never written. Shared segments for a destination are
// delivered after any copied words queued via Push.
func (o *Outbox) PushShared(dst core.NodeID, words []uint64) {
	if len(words) == 0 {
		return
	}
	if !o.hasUnsent(dst) {
		o.activate(dst)
	}
	o.shared[dst] = append(o.shared[dst], words)
	o.total += len(words)
}

// Pending returns the number of queued, not-yet-sent words.
func (o *Outbox) Pending() int { return o.total }

// sendNext sends dst's next queued word — copied words first, then
// shared segments — and dequeues it once the router accepts it. dst
// must have unsent words.
func (o *Outbox) sendNext(ctx *Ctx, dst core.NodeID) error {
	if h := o.head[dst]; h < len(o.pending[dst]) {
		if err := ctx.Send(dst, o.pending[dst][h]); err != nil {
			return err
		}
		o.head[dst] = h + 1
		return nil
	}
	seg, off := o.shared[dst][0], o.soff[dst]
	if err := ctx.Send(dst, seg[off]); err != nil {
		return err
	}
	if off+1 == len(seg) {
		// Pop the finished segment, releasing the reference.
		o.shared[dst][0] = nil
		o.shared[dst] = o.shared[dst][1:]
		o.soff[dst] = 0
	} else {
		o.soff[dst] = off + 1
	}
	return nil
}

// Flush sends one word to every destination with queued words, in one
// engine round. Call it once per Round handler invocation until Pending
// reaches zero. Because Flush uses each link once, it cannot provoke a
// *BandwidthError of its own — but it can surface one if the node
// already used a link this round outside the Outbox. On error the
// Outbox bookkeeping stays consistent: words accepted by the router are
// dequeued, the rest remain pending.
func (o *Outbox) Flush(ctx *Ctx) error {
	if o.total == 0 {
		return nil
	}
	kept := o.active[:0]
	for i, dst := range o.active {
		err := o.sendNext(ctx, dst)
		if err == nil {
			o.total--
		}
		if o.hasUnsent(dst) {
			kept = append(kept, dst)
		} else {
			o.pending[dst] = o.pending[dst][:0]
			o.head[dst] = 0
		}
		if err != nil {
			// Preserve the untouched tail of the active list. kept and
			// o.active share storage; copy-forward via append is safe.
			kept = append(kept, o.active[i+1:]...)
			o.active = kept
			return err
		}
	}
	o.active = kept
	return nil
}
