// The Transport interface is the seam between the engine's round loop
// and the fabric that completes a round's all-to-all exchange. The
// Dory–Parter round structure only assumes a synchronous all-to-all of
// B = O(log n)-bit words; everything below that — in-process boxes,
// sockets between processes — is a Transport implementation detail.
//
// Contract (enforced by the conformance suite in
// transportconformance_test.go):
//
//   - Partition(n) returns the contiguous node range [lo, hi) this
//     transport instance executes locally. The in-process transport
//     owns all of [0, n); a k-rank transport owns one ceil-partition
//     shard. Handlers run only for local nodes.
//   - Bind attaches the transport to one engine via a Binding and, for
//     multi-rank transports, establishes the peer mesh.
//   - Exchange completes round r: it moves every message queued this
//     round (locally and on every peer rank) into the engine's inbox
//     bank, swaps the banks, and returns the GLOBAL message count of
//     the round — the engine's quiescence condition, so every rank
//     exits its round loop at the same round. After Exchange, the
//     inbox bank must hold the complete round traffic for all n
//     destinations, per destination in source-ascending order with
//     each source's messages in send order — the exact order
//     MemTransport produces, which is what makes replay digest chains
//     bit-comparable across transports.
//   - AllGatherRows synchronizes a row-major n x rowLen result slab
//     across ranks at a harvest point (each rank contributes the rows
//     of its local node range). A no-op for single-rank transports.
//   - Abort tears the current round down loudly after a local error so
//     peer ranks blocked in Exchange fail instead of hanging. It is
//     not called for deterministic global events (quiescence,
//     ErrMaxRounds): every rank observes those on its own and exits in
//     lockstep.
package engine

import (
	"fmt"
	"sort"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// Transport moves one round's messages between the node shards of one
// logical clique. Implementations must be driven by exactly one engine
// (Bind pairs them); its methods are never called concurrently: the
// engine's run loop drives Exchange and Abort, and the clique session
// calls AllGatherRows between runs. See the package comment of this file for the
// full contract and transportconformance_test.go for its executable
// form.
type Transport interface {
	// Name identifies the transport ("mem", "socket-tcp", ...).
	Name() string
	// Partition returns the local node range [lo, hi) for a clique of
	// n nodes. Called once by engine.New before Bind.
	Partition(n int) (lo, hi int)
	// Bind attaches the transport to the engine behind b and, for
	// multi-rank transports, performs the peer handshake.
	Bind(b *Binding) error
	// Exchange completes round r. localMsgs is the number of messages
	// queued locally this round; the return value is the global count
	// across all ranks (equal to localMsgs for single-rank
	// transports). On error the round is broken and the engine run
	// fails; the engine then calls Abort.
	Exchange(r core.Round, localMsgs uint64) (uint64, error)
	// AllGatherRows synchronizes flat, a row-major slab of n rows of
	// rowLen int64 words each (len(flat) == n*rowLen): each rank
	// contributes rows [lo, hi) of its Partition and receives every
	// other rank's rows in place. Deterministic and synchronous: every
	// rank must call it the same number of times with the same shape.
	AllGatherRows(flat []int64, rowLen int) error
	// Abort tears down the current exchange after a local engine error
	// (handler error, context cancellation, hook panic) so peers fail
	// loudly instead of deadlocking. Idempotent; a no-op for
	// single-rank transports.
	Abort(reason error)
	// Close releases sockets/listeners. The transport must not be used
	// afterwards; Close is idempotent.
	Close() error
}

// Binding is the engine-side surface a Transport drives. It exposes
// exactly the router operations a transport needs — scatter locally,
// drain the workers' boxes, refill and swap the inbox banks — without
// exporting router internals.
type Binding struct {
	e *Engine
}

// N returns the clique size of the bound engine.
func (b *Binding) N() int { return b.e.n }

// ParallelScatter completes the fill bank from this round's boxes
// using the engine's worker pool (shard s by worker s) — the in-process
// fast path. Must be followed by FinishRound.
func (b *Binding) ParallelScatter() { b.e.parallelScatter() }

// FinishRound swaps the inbox banks and advances the router's link
// counters to the next round; call it exactly once per Exchange after
// the fill bank holds the round's complete traffic.
func (b *Binding) FinishRound() { b.e.rt.finishRound() }

// DrainOut streams every message queued locally this round — worker-
// major, destination-major, send order within a box, which per
// destination is exactly the router's deterministic delivery order —
// and truncates the boxes, worker 0's fill bank included. Used by
// transports that serialize the round instead of scattering in place.
func (b *Binding) DrainOut(emit func(dst, src core.NodeID, payload uint64)) {
	for _, c := range b.e.rt.ctxs {
		for d, box := range c.box {
			for i := range box {
				emit(core.NodeID(d), box[i].Src, box[i].Payload)
			}
			c.box[d] = box[:0]
		}
	}
}

// ClearSpare truncates both banks ahead of Deliver refill (capacity
// retained): the fill bank Deliver appends to, and the bank just read,
// which FinishRound turns into next round's fill bank.
func (b *Binding) ClearSpare() {
	rt := b.e.rt
	fill := rt.fill()
	for d := range fill {
		fill[d] = fill[d][:0]
		rt.inbox[d] = rt.inbox[d][:0]
	}
}

// Deliver appends one message to dst's box in the fill bank. Callers
// are responsible for global delivery order: streams must be replayed
// in rank order so per-destination order matches MemTransport.
func (b *Binding) Deliver(dst, src core.NodeID, payload uint64) {
	fill := b.e.rt.fill()
	fill[dst] = append(fill[dst], Message{Src: src, Payload: payload})
}

// MemTransport is the in-process transport: the engine's box router
// already implements the exchange, so Exchange is exactly the
// parallel scatter plus the bank swap the pre-Transport engine did
// inline — same code path, same 0 allocs/op. It is the default when
// Options.Transport is nil.
type MemTransport struct {
	b *Binding
}

// NewMemTransport returns the in-process transport.
func NewMemTransport() *MemTransport { return &MemTransport{} }

// Name identifies the transport.
func (t *MemTransport) Name() string { return "mem" }

// Partition owns the whole clique: [0, n).
func (t *MemTransport) Partition(n int) (lo, hi int) { return 0, n }

// Bind attaches the transport to its engine.
func (t *MemTransport) Bind(b *Binding) error {
	t.b = b
	return nil
}

// Exchange scatters the round's boxes in parallel and swaps the inbox
// banks. All traffic is local, so the global count is localMsgs.
func (t *MemTransport) Exchange(r core.Round, localMsgs uint64) (uint64, error) {
	t.b.ParallelScatter()
	t.b.FinishRound()
	return localMsgs, nil
}

// AllGatherRows is a no-op: a single rank already holds every row.
func (t *MemTransport) AllGatherRows(flat []int64, rowLen int) error { return nil }

// Abort is a no-op: there are no peers to notify.
func (t *MemTransport) Abort(reason error) {}

// Close is a no-op.
func (t *MemTransport) Close() error { return nil }

// RankBounds returns the contiguous node range [lo, hi) owned by rank
// of a clique of n nodes split across ranks processes — the same ceil
// partition the router uses for shard bounds, so rank boundaries and
// shard boundaries agree when they must.
func RankBounds(n, rank, ranks int) (lo, hi int) {
	lo = (rank*n + ranks - 1) / ranks
	hi = ((rank+1)*n + ranks - 1) / ranks
	return lo, hi
}

// transportNetworks maps every transport NewTransportCluster builds to
// the socket network of its loopback cluster; "mem" has none.
var transportNetworks = map[string]string{"mem": "", "socket-tcp": "tcp", "socket-unix": "unix"}

// transportNames lists the keys of transportNetworks, sorted.
func transportNames() []string {
	names := make([]string, 0, len(transportNetworks))
	for name := range transportNetworks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewTransportCluster builds the ranks linked transports of one logical
// clique, index i being rank i's, over the named transport: "mem"
// (single-rank, in-process), "socket-tcp" or "socket-unix" (loopback
// socket clusters).
func NewTransportCluster(name string, ranks int) ([]Transport, error) {
	network, ok := transportNetworks[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown transport %q (have %v)", name, transportNames())
	}
	if ranks < 1 {
		return nil, fmt.Errorf("engine: transport cluster needs >= 1 rank, got %d", ranks)
	}
	if network != "" {
		return LoopbackCluster(ranks, network, 0)
	}
	if ranks != 1 {
		return nil, fmt.Errorf("engine: mem transport is single-rank, got %d ranks", ranks)
	}
	return []Transport{NewMemTransport()}, nil
}
