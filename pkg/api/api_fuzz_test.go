package api_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/pkg/api"
	"github.com/paper-repo-growth/doryp20/server"
)

// queryEndpoint is one POST /graphs/{id}/<name> query route: a valid
// seed request, and how a 200 body decodes into its response type —
// the length of every row it carries, -1 for a row that is missing.
type queryEndpoint struct {
	name string
	seed any
	rows func(body []byte) ([]int, error)
}

// decodeRows decodes body strictly into a T and returns rows(T).
func decodeRows[T any](rows func(T) []int) func([]byte) ([]int, error) {
	return func(body []byte) ([]int, error) {
		var r T
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return nil, err
		}
		return rows(r), nil
	}
}

var queryEndpoints = []queryEndpoint{
	{"sssp", api.SSSPRequest{Source: 0},
		decodeRows(func(r api.SSSPResponse) []int { return []int{len(r.Dist)} })},
	{"ksource", api.KSourceRequest{Sources: []int64{0, 3}, H: 2},
		decodeRows(func(r api.KSourceResponse) []int {
			var rows []int
			for _, d := range r.Dist {
				rows = append(rows, len(d))
			}
			if len(r.Dist) != len(r.Sources) {
				rows = append(rows, -1)
			}
			return rows
		})},
	{"approx-sssp", api.ApproxSSSPRequest{Source: 1, Eps: 0.5},
		decodeRows(func(r api.ApproxSSSPResponse) []int { return []int{len(r.Dist)} })},
	{"reachable", api.ReachableRequest{Source: 2},
		decodeRows(func(r api.ReachableResponse) []int { return []int{len(r.Reachable)} })},
}

// FuzzQueryBodies posts fuzzed bodies to the four query endpoints of a
// daemon serving one small weighted graph; a fuzzed byte picks the
// endpoint. Every response must be 2xx or 4xx — a 5xx or a handler
// panic fails — and every 200 must decode into the endpoint's response
// type with n entries per row (a ksource response with one row per
// source).
func FuzzQueryBodies(f *testing.F) {
	g := graph.RandomGNPWeighted(8, 0.4, 9, 1)
	srv := server.New(server.Options{Workers: 1})
	ts := httptest.NewServer(srv)
	f.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, g); err != nil {
		f.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/graphs?name=g", "text/plain", &edges)
	if err != nil {
		f.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		f.Fatalf("uploading the graph: %s", resp.Status)
	}
	for i, ep := range queryEndpoints {
		body, err := json.Marshal(ep.seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), body)
	}
	f.Fuzz(func(t *testing.T, pick uint8, body []byte) {
		ep := queryEndpoints[int(pick)%len(queryEndpoints)]
		resp, err := ts.Client().Post(ts.URL+"/graphs/g/"+ep.name, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode < 200 || resp.StatusCode >= 500 {
			t.Fatalf("%s %q: %s %s", ep.name, body, resp.Status, data)
		}
		if resp.StatusCode != http.StatusOK {
			return
		}
		rows, err := ep.rows(data)
		if err != nil {
			t.Fatalf("%s %q: 200 body %s does not decode: %v", ep.name, body, data, err)
		}
		for _, l := range rows {
			if l != g.N {
				t.Fatalf("%s %q: 200 body %s has a row of %d entries, want %d", ep.name, body, data, l, g.N)
			}
		}
	})
}
