package algo

import (
	"fmt"
	"sort"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
	"github.com/paper-repo-growth/doryp20/internal/graph"
)

// MSTKernel computes a minimum spanning forest by Borůvka phases over
// the router, one engine pass per phase:
//
//	round 0: every vertex sends its component label to its G-neighbors
//	  (one word per incident link).
//	round 1: knowing its neighbors' components, every vertex picks its
//	  minimum outgoing edge — the (w, lo, hi)-least incident edge that
//	  crosses to another component — and submits the packed candidate
//	  to its component leader. A vertex that is its own leader holds
//	  the candidate locally and emits a keepalive word instead (the
//	  engine treats a silent round as termination, and self-sends are
//	  illegal).
//	round 2: leaders fold the minimum over submitted candidates; the
//	  round is silent, ending the pass.
//
// The harvest all-gathers the per-leader choices, then merges
// components by pointer jumping over the leader-choice digraph: each
// choosing leader points at the other endpoint's leader, the 2-cycles
// that mutual choices form are broken toward the smaller ID (the strict
// (w, lo, hi) edge order admits no longer cycles), and ptr = ptr[ptr]
// iterates to the fixpoint. Chosen edges — deduplicated, since both
// sides of a mutual choice submit the same canonical (w, lo, hi) word —
// join the forest. A phase that chooses nothing is the terminating
// pass, so a graph with any edge always runs at least two passes.
//
// The (w, lo, hi) total order makes the minimum spanning forest unique,
// so the result is bit-identical to MSTRef's Kruskal. Unweighted
// session graphs are treated as unit-weighted.
type MSTKernel struct {
	n      int
	g      *graph.CSR
	comp   []core.NodeID
	weight int64
	edges  []MSTEdge
	state  []mstNode

	idBits, wBits uint

	started bool
	done    bool
	gather  engine.Gatherer
}

// MSTEdge is one forest edge with canonical endpoint order U < V.
type MSTEdge struct {
	// U and V are the edge endpoints, U < V.
	U, V core.NodeID
	// W is the edge weight (1 for unweighted session graphs).
	W int64
}

// MSTResult is the minimum-spanning-forest result: the total weight
// and the forest edges sorted by (U, V). Edges is non-nil even for an
// empty forest.
type MSTResult struct {
	// Weight is the sum of the forest's edge weights.
	Weight int64
	// Edges lists the forest edges in canonical order.
	Edges []MSTEdge
}

// SetGatherer injects the session transport's all-gather so every
// phase's harvest assembles the leader choices on every rank (clique
// TransportAware hook).
func (k *MSTKernel) SetGatherer(g engine.Gatherer) { k.gather = g }

// NewMSTKernel returns a minimum-spanning-forest kernel.
func NewMSTKernel() *MSTKernel { return &MSTKernel{} }

// Name identifies the kernel.
func (k *MSTKernel) Name() string { return "mst" }

// mstKeepalive is the round-1 control word self-leaders emit so a
// round with pending candidates is never silent; it carries no payload
// (candidate words always have the top tag bit set).
const mstKeepalive uint64 = 0

// packEdge encodes a candidate edge as [tag=1][w][lo][hi]; comparing
// packed words compares (w, lo, hi) lexicographically.
func (k *MSTKernel) packEdge(w int64, lo, hi core.NodeID) uint64 {
	return 1<<63 | uint64(w)<<(2*k.idBits) | uint64(lo)<<k.idBits | uint64(hi)
}

// unpackEdge inverts packEdge.
func (k *MSTKernel) unpackEdge(word uint64) (w int64, lo, hi core.NodeID) {
	mask := uint64(1)<<k.idBits - 1
	hi = core.NodeID(word & mask)
	lo = core.NodeID(word >> k.idBits & mask)
	w = int64(word >> (2 * k.idBits) & (uint64(1)<<k.wBits - 1))
	return w, lo, hi
}

// Nodes harvests the phase that just ran (merging components and
// collecting chosen edges), then dispatches the next Borůvka phase, or
// completes once a phase chooses nothing.
func (k *MSTKernel) Nodes(g *graph.CSR) ([]engine.Node, error) {
	if k.done {
		return nil, nil
	}
	if !k.started {
		if err := k.start(g); err != nil {
			return nil, err
		}
	} else if k.g == nil {
		// Restored from a checkpoint: the blob carries components and
		// forest, the graph-derived fields rebind to the session graph.
		if err := k.bind(g); err != nil {
			return nil, err
		}
	}
	if k.state != nil {
		if err := k.harvest(); err != nil {
			return nil, err
		}
		if k.done {
			return nil, nil
		}
	}
	nodes := make([]engine.Node, k.n)
	k.state = make([]mstNode, k.n)
	for i := range k.state {
		k.state[i] = mstNode{k: k}
		nodes[i] = &k.state[i]
	}
	return nodes, nil
}

// start validates the input and initializes the singleton components.
func (k *MSTKernel) start(g *graph.CSR) error {
	if err := k.bind(g); err != nil {
		return err
	}
	k.comp = make([]core.NodeID, k.n)
	for v := range k.comp {
		k.comp[v] = core.NodeID(v)
	}
	k.edges = []MSTEdge{}
	k.started = true
	return nil
}

// bind validates the session graph and derives the graph-bound fields
// (unit-weight view, candidate packing widths) without touching the
// component or forest state — shared by start and the post-restore
// rebind.
func (k *MSTKernel) bind(g *graph.CSR) error {
	if g == nil {
		return errNoGraph(k.Name())
	}
	if k.started && g.N != k.n {
		return fmt.Errorf("algo: %s state is for n = %d, session graph has n = %d", k.Name(), k.n, g.N)
	}
	gw := g.WithUnitWeights()
	if err := checkNonNegative(k.Name(), gw); err != nil {
		return err
	}
	idBits := uint(core.Log2Ceil(gw.N))
	if idBits == 0 {
		idBits = 1
	}
	if 2*idBits+1 >= 64 {
		return fmt.Errorf("algo: %s cannot pack candidates for n = %d", k.Name(), gw.N)
	}
	wBits := 63 - 2*idBits
	for _, w := range gw.Weights {
		if w >= int64(1)<<wBits {
			return fmt.Errorf("algo: %s weight %d does not fit in the %d-bit candidate field for n = %d", k.Name(), w, wBits, gw.N)
		}
	}
	k.g, k.n, k.idBits, k.wBits = gw, gw.N, idBits, wBits
	return nil
}

// harvest all-gathers the leaders' chosen edges, merges components by
// pointer jumping, and accumulates the forest; a choice-free phase
// completes the kernel. Idempotent once the pass state is consumed, so
// checkpointing can force it at a pass boundary.
func (k *MSTKernel) harvest() error {
	if k.state == nil {
		return nil
	}
	slab := make([]int64, k.n)
	for v := range k.state {
		slab[v] = int64(k.state[v].chosen)
	}
	k.state = nil
	if k.gather != nil && k.n > 0 {
		if err := k.gather.AllGatherRows(slab, 1); err != nil {
			return err
		}
	}

	// ptr is the leader-choice digraph: each choosing leader points at
	// the leader on the other side of its chosen edge.
	ptr := make([]core.NodeID, k.n)
	for v := range ptr {
		ptr[v] = core.NodeID(v)
	}
	chosen := false
	seen := make(map[uint64]bool)
	for v, word := range slab {
		if word == 0 {
			continue
		}
		chosen = true
		w, lo, hi := k.unpackEdge(uint64(word))
		other := k.comp[lo]
		if other == core.NodeID(v) {
			other = k.comp[hi]
		}
		ptr[v] = other
		if !seen[uint64(word)] {
			seen[uint64(word)] = true
			k.edges = append(k.edges, MSTEdge{U: lo, V: hi, W: w})
			k.weight += w
		}
	}
	if !chosen {
		sort.Slice(k.edges, func(i, j int) bool {
			if k.edges[i].U != k.edges[j].U {
				return k.edges[i].U < k.edges[j].U
			}
			return k.edges[i].V < k.edges[j].V
		})
		k.done = true
		return nil
	}
	// Break the mutual-choice 2-cycles toward the smaller ID, then
	// pointer-jump to the roots.
	for v := range ptr {
		u := ptr[v]
		if core.NodeID(v) < u && ptr[u] == core.NodeID(v) {
			ptr[v] = core.NodeID(v)
		}
	}
	for {
		stable := true
		for v := range ptr {
			if t := ptr[ptr[v]]; t != ptr[v] {
				ptr[v] = t
				stable = false
			}
		}
		if stable {
			break
		}
	}
	for v := range k.comp {
		k.comp[v] = ptr[k.comp[v]]
	}
	return nil
}

// Result returns the MSTResult (forest weight plus canonical edge
// list), nil before completion.
func (k *MSTKernel) Result() any {
	if !k.done {
		return nil
	}
	return MSTResult{Weight: k.weight, Edges: k.edges}
}

// Forest returns the typed result; the zero MSTResult before
// completion.
func (k *MSTKernel) Forest() MSTResult {
	if !k.done {
		return MSTResult{}
	}
	return MSTResult{Weight: k.weight, Edges: k.edges}
}

// mstNode is one vertex's per-phase state: it learns its neighbors'
// component labels in round 1, submits its minimum outgoing edge, and —
// if it is a component leader — folds the component's choice in round
// 2.
type mstNode struct {
	k *MSTKernel
	// best is the least candidate seen so far: the node's own in round
	// 1, the component fold for leaders in round 2. 0 means none.
	best uint64
	// chosen is the folded component choice, set on leaders in round 2
	// and harvested by the kernel.
	chosen uint64
}

// Round implements the three-round phase script documented on
// MSTKernel.
func (nd *mstNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	k := nd.k
	me := ctx.ID()
	switch r {
	case 0:
		for _, v := range k.g.Neighbors(me) {
			if err := ctx.Send(v, uint64(k.comp[me])); err != nil {
				return err
			}
		}
	case 1:
		nbComp := make(map[core.NodeID]core.NodeID, len(inbox))
		for _, m := range inbox {
			nbComp[m.Src] = core.NodeID(m.Payload)
		}
		nbrs := k.g.Neighbors(me)
		ws := k.g.NeighborWeights(me)
		for i, v := range nbrs {
			if nbComp[v] == k.comp[me] {
				continue
			}
			lo, hi := me, v
			if lo > hi {
				lo, hi = hi, lo
			}
			if cand := k.packEdge(ws[i], lo, hi); nd.best == 0 || cand < nd.best {
				nd.best = cand
			}
		}
		if nd.best == 0 {
			return nil
		}
		if leader := k.comp[me]; leader != me {
			return ctx.Send(leader, nd.best)
		}
		// Self-leader: hold the candidate and keep the round alive. A
		// candidate implies an edge, so n >= 2 and the target is not us.
		return ctx.Send(core.NodeID((int(me)+1)%k.n), mstKeepalive)
	case 2:
		if k.comp[me] != me {
			return nil
		}
		for _, m := range inbox {
			if m.Payload&(1<<63) == 0 {
				continue // keepalive
			}
			if nd.best == 0 || m.Payload < nd.best {
				nd.best = m.Payload
			}
		}
		nd.chosen = nd.best
	}
	return nil
}

// MSTRef is the sequential minimum-spanning-forest reference: Kruskal
// with the same strict (w, lo, hi) edge order the kernel uses, so the
// unique minimum forest matches the distributed result bit for bit.
func MSTRef(g *graph.CSR) MSTResult {
	gw := g.WithUnitWeights()
	type edge struct {
		w      int64
		lo, hi core.NodeID
	}
	var edges []edge
	for v := 0; v < gw.N; v++ {
		nbrs := gw.Neighbors(core.NodeID(v))
		ws := gw.NeighborWeights(core.NodeID(v))
		for i, u := range nbrs {
			if core.NodeID(v) < u {
				edges = append(edges, edge{w: ws[i], lo: core.NodeID(v), hi: u})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w < edges[j].w
		}
		if edges[i].lo != edges[j].lo {
			return edges[i].lo < edges[j].lo
		}
		return edges[i].hi < edges[j].hi
	})
	parent := make([]core.NodeID, gw.N)
	for v := range parent {
		parent[v] = core.NodeID(v)
	}
	var find func(core.NodeID) core.NodeID
	find = func(v core.NodeID) core.NodeID {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	res := MSTResult{Edges: []MSTEdge{}}
	for _, e := range edges {
		ra, rb := find(e.lo), find(e.hi)
		if ra == rb {
			continue
		}
		parent[ra] = rb
		res.Edges = append(res.Edges, MSTEdge{U: e.lo, V: e.hi, W: e.w})
		res.Weight += e.w
	}
	sort.Slice(res.Edges, func(i, j int) bool {
		if res.Edges[i].U != res.Edges[j].U {
			return res.Edges[i].U < res.Edges[j].U
		}
		return res.Edges[i].V < res.Edges[j].V
	})
	return res
}
