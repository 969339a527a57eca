// Package api defines the JSON wire types of the ccserve HTTP API —
// the contract between server/ (the daemon's handlers) and pkg/client
// (the Go client library). Distances use the pipeline's Unreached
// sentinel (-1) for vertices the query's source cannot reach.
//
// Endpoints (all request/response bodies are JSON unless noted):
//
//	GET    /healthz                  -> "ok" (text)
//	GET    /metrics                  -> Prometheus text exposition
//	GET    /stats                    -> StatsResponse
//	POST   /graphs?name=ID           <- edge-list text, -> GraphInfo
//	GET    /graphs                   -> GraphList
//	GET    /graphs/{id}              -> GraphInfo
//	DELETE /graphs/{id}              -> 204
//	POST   /graphs/{id}/sssp         <- SSSPRequest, -> SSSPResponse
//	POST   /graphs/{id}/ksource      <- KSourceRequest, -> KSourceResponse
//	POST   /graphs/{id}/approx-sssp  <- ApproxSSSPRequest, -> ApproxSSSPResponse
//	POST   /graphs/{id}/reachable    <- ReachableRequest, -> ReachableResponse
//
// Errors are returned with a 4xx/5xx status and an Error body.
package api

import "github.com/paper-repo-growth/doryp20/clique"

// Unreached is the distance sentinel for unreachable vertices,
// mirroring the pipeline's internal sentinel.
const Unreached = int64(-1)

// GraphInfo describes one loaded graph. Version is the daemon-global
// monotonic load counter — the key of the serving session pool — so
// reloading a graph under the same name yields a distinct version.
type GraphInfo struct {
	ID       string `json:"id"`
	Version  uint64 `json:"version"`
	N        int    `json:"n"`
	Edges    int    `json:"edges"`
	Weighted bool   `json:"weighted"`
}

// GraphList is the GET /graphs response, sorted by ID.
type GraphList struct {
	Graphs []GraphInfo `json:"graphs"`
}

// SSSPRequest asks for exact single-source shortest-path distances.
type SSSPRequest struct {
	Source int64 `json:"source"`
}

// SSSPResponse carries exact distances from Source to every vertex,
// plus the query's cost telemetry: the engine rounds the run took and
// its engine wall time in nanoseconds.
type SSSPResponse struct {
	Source    int64   `json:"source"`
	Dist      []int64 `json:"dist"`
	Rounds    int     `json:"rounds"`
	WallNanos int64   `json:"wall_nanos"`
}

// KSourceRequest asks for exact distances from several sources in one
// batched two-stage pipeline run. H is the per-product hop horizon of
// stage 1; 0 selects the server default (the hopset regime's
// ceil(sqrt(n-1))+1).
type KSourceRequest struct {
	Sources []int64 `json:"sources"`
	H       int     `json:"h,omitempty"`
}

// KSourceResponse carries one distance row per requested source, plus
// the run's rounds/wall cost telemetry.
type KSourceResponse struct {
	Sources   []int64   `json:"sources"`
	H         int       `json:"h"`
	Dist      [][]int64 `json:"dist"`
	Rounds    int       `json:"rounds"`
	WallNanos int64     `json:"wall_nanos"`
}

// ApproxSSSPRequest asks for (1+ε)-approximate single-source
// distances. Eps is the approximation slack; 0 selects the server
// default. Queries with the same (graph, eps) are candidates for
// coalescing into one batched kernel run and share the daemon's
// hopset-augmented adjacency cache.
type ApproxSSSPRequest struct {
	Source int64   `json:"source"`
	Eps    float64 `json:"eps,omitempty"`
}

// ApproxSSSPResponse carries (1+ε)-approximate distances plus the
// serving telemetry the admission layer recorded for this query: the
// size of the coalesced batch it rode in, whether the batch hit the
// hopset cache (zero stage-1 rounds), and the engine passes/rounds the
// batch cost — shared across its BatchSize queries.
type ApproxSSSPResponse struct {
	Source    int64   `json:"source"`
	Eps       float64 `json:"eps"`
	Beta      int     `json:"beta"`
	Dist      []int64 `json:"dist"`
	BatchSize int     `json:"batch_size"`
	CacheHit  bool    `json:"cache_hit"`
	Passes    int     `json:"passes"`
	Rounds    int     `json:"rounds"`
	// WallNanos is the batch's engine wall time, shared across its
	// BatchSize queries (zero when another leader's cached batch
	// answered this query).
	WallNanos int64 `json:"wall_nanos"`
}

// ReachableRequest asks which vertices the source can reach.
type ReachableRequest struct {
	Source int64 `json:"source"`
}

// ReachableResponse carries one reachability bit per vertex. The first
// query on a graph runs the transitive-closure kernel and caches the
// full closure; later queries on the same graph answer from the cache
// (CacheHit true, zero rounds).
type ReachableResponse struct {
	Source    int64  `json:"source"`
	Reachable []bool `json:"reachable"`
	Rounds    int    `json:"rounds"`
	WallNanos int64  `json:"wall_nanos"`
	CacheHit  bool   `json:"cache_hit"`
}

// GraphStats pairs a loaded graph with its serving session's
// cumulative accounting, in the repository's one stable Stats
// encoding (the JSON tags of clique.Stats).
type GraphStats struct {
	GraphInfo
	Stats clique.Stats `json:"stats"`
}

// StatsResponse is the GET /stats document: per-graph session
// accounting plus daemon-level query totals.
type StatsResponse struct {
	Graphs []GraphStats `json:"graphs"`
	// Queries counts admitted queries by kind ("sssp", "ksource",
	// "approx-sssp", "reachable").
	Queries map[string]uint64 `json:"queries"`
	// KernelRuns counts engine kernel executions; under coalescing it
	// trails the approx-sssp query count.
	KernelRuns uint64 `json:"kernel_runs"`
}

// Error is the JSON body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}
