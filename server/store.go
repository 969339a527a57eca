package server

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
	"github.com/paper-repo-growth/doryp20/pkg/api"
)

// graphEntry is one served graph: its immutable CSR, its identity
// (ID + pool version), and the approx-serving state that hangs off it.
type graphEntry struct {
	info api.GraphInfo
	g    *graph.CSR

	// hopsets caches, per core.SigBitsFor(ε) — all the construction
	// reads of ε — the hopset-augmented adjacency and the relaxation
	// product bound that make a RelaxKernel bit-identical to the full
	// approximate pipeline. Guarded by the session pool's per-version
	// serialization: it is only touched while holding the graph's
	// lease.
	hopsets map[int]*hopsetCache

	// closure caches the graph's full transitive closure after the
	// first reachability query — reachability has no ε, so one line per
	// graph suffices. It is stored under the graph's session lease and
	// read without it.
	closure atomic.Pointer[closure]

	// coalsMu guards coals, the admission coalescers under the same key.
	coalsMu sync.Mutex
	coals   map[int]*coalescer
}

// hopsetCache is the steady-state fast path for one (graph,
// SigBitsFor(ε)): the augmented (min,+) matrix, the most products
// stage 2 may run over it, and stage 2's plan over it (nil when it
// prices as row-pull). The plan says the cube nodes of the graph's one
// session hold the augmented matrix's blocks, so every cache hit ships
// only Δ and partial rows; it is used under the graph's lease alone,
// like the rest of the entry.
type hopsetCache struct {
	aug      *matmul.Matrix
	plan     *matmul.Plan
	beta     int
	products int
}

// idPattern bounds graph IDs to path-safe names.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// errDuplicateID marks add failures on an ID that is already serving;
// the HTTP layer maps it to 409 Conflict.
var errDuplicateID = errors.New("graph id already loaded")

// store is the daemon's graph registry: name -> entry, with a
// monotonic version counter feeding the session pool's key space.
type store struct {
	pool *sessionPool

	mu          sync.RWMutex
	byID        map[string]*graphEntry
	nextVersion uint64
}

func newStore(pool *sessionPool) *store {
	return &store{pool: pool, byID: map[string]*graphEntry{}}
}

// add registers g under id (empty selects "g<version>") and its new
// version with the pool, and returns the new entry. Duplicate IDs are
// rejected — delete first, versions are not silently replaced.
func (st *store) add(id string, g *graph.CSR) (*graphEntry, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextVersion++
	version := st.nextVersion
	if id == "" {
		id = fmt.Sprintf("g%d", version)
	}
	if !idPattern.MatchString(id) {
		return nil, fmt.Errorf("server: invalid graph id %q (want %s)", id, idPattern)
	}
	if _, dup := st.byID[id]; dup {
		return nil, fmt.Errorf("server: graph %q: %w (delete it first)", id, errDuplicateID)
	}
	e := &graphEntry{
		info: api.GraphInfo{
			ID: id, Version: version, N: g.N,
			Edges: g.NumEdges(), Weighted: g.Weighted(),
		},
		g:       g,
		hopsets: map[int]*hopsetCache{},
		coals:   map[int]*coalescer{},
	}
	st.pool.register(version)
	st.byID[id] = e
	return e, nil
}

// get returns the entry for id, or nil.
func (st *store) get(id string) *graphEntry {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.byID[id]
}

// remove unregisters id and returns its entry, or nil when absent.
// New queries fail immediately after remove; the caller then drops the
// pool version, which waits out the current leaseholder.
func (st *store) remove(id string) *graphEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.byID[id]
	delete(st.byID, id)
	return e
}

// list returns every entry sorted by ID.
func (st *store) list() []*graphEntry {
	st.mu.RLock()
	defer st.mu.RUnlock()
	es := make([]*graphEntry, 0, len(st.byID))
	for _, e := range st.byID {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].info.ID < es[j].info.ID })
	return es
}

// coalescerFor returns the admission coalescer of (e, sigBits),
// creating it with the given construction on first use.
func (e *graphEntry) coalescerFor(sigBits int, make func() *coalescer) *coalescer {
	e.coalsMu.Lock()
	defer e.coalsMu.Unlock()
	c, ok := e.coals[sigBits]
	if !ok {
		c = make()
		e.coals[sigBits] = c
	}
	return c
}
