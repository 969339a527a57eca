package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/paper-repo-growth/doryp20/pkg/api"
)

// TestRequestsCarryTheirContentType: JSON query bodies go out as
// application/json and the LoadGraph edge list as text/plain.
func TestRequestsCarryTheirContentType(t *testing.T) {
	var mu sync.Mutex
	got := map[string]string{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got[r.URL.Path] = r.Header.Get("Content-Type")
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()
	if _, err := c.SSSP(ctx, "g", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadGraph(ctx, "g", strings.NewReader("0 1\n")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for path, want := range map[string]string{"/graphs/g/sssp": "application/json", "/graphs": "text/plain"} {
		if got[path] != want {
			t.Errorf("POST %s sent Content-Type %q, want %q", path, got[path], want)
		}
	}
}

// TestErrorResponses: a non-2xx response becomes an *APIError carrying
// the api.Error message, or the HTTP status line when the body is not
// one.
func TestErrorResponses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/graphs/missing" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(api.Error{Error: "no graph missing"})
			return
		}
		http.Error(w, "<html>upstream down</html>", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := New(srv.URL)
	for _, tc := range []struct {
		id, msg string
		status  int
	}{
		{"missing", "no graph missing", http.StatusNotFound},
		{"other", "502 Bad Gateway", http.StatusBadGateway},
	} {
		_, err := c.GetGraph(context.Background(), tc.id)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != tc.status || apiErr.Message != tc.msg {
			t.Errorf("GetGraph(%q) error = %#v, want status %d and message %q", tc.id, err, tc.status, tc.msg)
		}
	}
}

// TestNewStripsTrailingSlashes: every path is appended to the base, so
// the base keeps none of its trailing slashes.
func TestNewStripsTrailingSlashes(t *testing.T) {
	if got := New("http://h//").base; got != "http://h" {
		t.Errorf("New(%q).base = %q, want %q", "http://h//", got, "http://h")
	}
}
