package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// LoadEdgeList parses an undirected graph from the repository's
// edge-list / DIMACS-lite text format — the wire format of ccserve's
// POST /graphs endpoint and the loader for real datasets. The format,
// line by line:
//
//   - Blank lines are ignored. Lines whose first field is "c" or whose
//     first non-space byte is '#' are comments.
//   - An optional header "p <n> [<m>]" (at most one, before any edge)
//     declares the vertex count n — required for graphs with isolated
//     vertices — and optionally the undirected edge count m, which is
//     validated against the edges actually parsed.
//   - Every other line is one undirected edge: "u v" (unweighted) or
//     "u v w" (weighted), with 0-based integer endpoints and a
//     non-negative integer weight. All edges must agree on
//     weightedness.
//
// Self-loops, duplicate edges (in either orientation), negative
// weights, out-of-range endpoints, and malformed tokens are rejected
// with errors naming the offending line. Without a header, the vertex
// count is one past the largest endpoint; an input with neither header
// nor edges is rejected rather than guessed at.
func LoadEdgeList(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)

	var (
		edges      [][2]core.NodeID
		weights    []int64
		seen       = map[[2]core.NodeID]bool{}
		n          = -1 // declared vertex count, -1 when no header
		declaredM  = -1
		haveHeader bool
		weighted   bool
		line       int
	)
	for sc.Scan() {
		line++
		fields, comment := splitEdgeLine(sc.Text())
		if comment || len(fields) == 0 {
			continue
		}
		if fields[0] == "p" {
			if haveHeader {
				return nil, fmt.Errorf("graph: line %d: duplicate header", line)
			}
			if len(edges) > 0 {
				return nil, fmt.Errorf("graph: line %d: header after edges", line)
			}
			hn, hm, err := parseHeader(fields)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
			n, declaredM, haveHeader = hn, hm, true
			continue
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want \"u v\" or \"u v w\", got %d fields", line, len(fields))
		}
		u, err := parseEndpoint(fields[0], n)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		v, err := parseEndpoint(fields[1], n)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		if u == v {
			return nil, fmt.Errorf("graph: line %d: self-loop at vertex %d", line, u)
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]core.NodeID{u, v}] {
			return nil, fmt.Errorf("graph: line %d: duplicate edge {%d,%d}", line, u, v)
		}
		seen[[2]core.NodeID{u, v}] = true
		if len(edges) == 0 {
			weighted = len(fields) == 3
		} else if weighted != (len(fields) == 3) {
			return nil, fmt.Errorf("graph: line %d: mixed weighted and unweighted edges", line)
		}
		if weighted {
			w, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: invalid weight %q", line, fields[2])
			}
			if w < 0 {
				return nil, fmt.Errorf("graph: line %d: negative weight %d", line, w)
			}
			weights = append(weights, w)
		}
		edges = append(edges, [2]core.NodeID{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if declaredM >= 0 && declaredM != len(edges) {
		return nil, fmt.Errorf("graph: header declares %d edges, input has %d", declaredM, len(edges))
	}
	if !haveHeader {
		if len(edges) == 0 {
			return nil, fmt.Errorf("graph: empty input (no header, no edges)")
		}
		for _, e := range edges {
			if int(e[1]) >= n {
				n = int(e[1]) + 1
			}
		}
	}
	g := fromUndirectedEdges(n, edges)
	if weighted {
		wm := make(map[[2]core.NodeID]int64, len(edges))
		for i, e := range edges {
			wm[e] = weights[i]
		}
		w := make([]int64, len(g.Targets))
		for v := 0; v < g.N; v++ {
			lo, hi := g.Offsets[v], g.Offsets[v+1]
			for i := lo; i < hi; i++ {
				a, b := core.NodeID(v), g.Targets[i]
				if a > b {
					a, b = b, a
				}
				w[i] = wm[[2]core.NodeID{a, b}]
			}
		}
		g.Weights = w
	}
	return g, nil
}

// splitEdgeLine tokenizes one line and classifies comments ('#'-leading
// lines and DIMACS "c" lines).
func splitEdgeLine(s string) (fields []string, comment bool) {
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' && s[i] != '\t' && s[i] != '\r' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fields = append(fields, s[start:i])
			start = -1
		}
	}
	if len(fields) > 0 && (fields[0] == "c" || fields[0][0] == '#') {
		return nil, true
	}
	return fields, false
}

// parseHeader parses "p <n> [<m>]"; m is -1 when absent.
func parseHeader(fields []string) (n, m int, err error) {
	if len(fields) != 2 && len(fields) != 3 {
		return 0, 0, fmt.Errorf("header wants \"p <n> [<m>]\", got %d fields", len(fields))
	}
	n, err = strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("invalid vertex count %q", fields[1])
	}
	m = -1
	if len(fields) == 3 {
		m, err = strconv.Atoi(fields[2])
		if err != nil || m < 0 {
			return 0, 0, fmt.Errorf("invalid edge count %q", fields[2])
		}
	}
	return n, m, nil
}

// parseEndpoint parses a 0-based vertex ID, bounded by the declared
// vertex count when a header was seen (n >= 0).
func parseEndpoint(s string, n int) (core.NodeID, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid vertex %q", s)
	}
	if n >= 0 && int(v) >= n {
		return 0, fmt.Errorf("vertex %d out of range [0,%d)", v, n)
	}
	return core.NodeID(v), nil
}

// WriteEdgeList serializes g in the format LoadEdgeList parses: a
// "p <n> <m>" header (so isolated vertices survive the round trip)
// followed by one line per undirected edge, smaller endpoint first,
// with the weight appended when g is weighted. LoadEdgeList of the
// output reproduces g exactly — the round trip pkg/client relies on to
// upload in-memory graphs to ccserve.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p %d %d\n", g.N, g.NumEdges())
	for v := 0; v < g.N; v++ {
		nbrs := g.Neighbors(core.NodeID(v))
		for i, u := range nbrs {
			if int(u) < v {
				continue
			}
			if g.Weighted() {
				fmt.Fprintf(bw, "%d %d %d\n", v, u, g.NeighborWeights(core.NodeID(v))[i])
			} else {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	return bw.Flush()
}
