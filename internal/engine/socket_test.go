package engine

import (
	"strings"
	"testing"
)

// TestValidateHello: a peer hello that matches the local view of the
// mesh is accepted, and every kind of mismatch is refused with its own
// message.
func TestValidateHello(t *testing.T) {
	const n, ranks, rank = 17, 3, 1
	tr := &SocketTransport{cfg: SocketConfig{Addrs: make([]string, ranks), Rank: rank}}
	tr.Partition(n)
	lo, hi := RankBounds(n, 2, ranks)
	good := helloBody{version: frameVersion, n: n, ranks: ranks, rank: 2, lo: uint64(lo), hi: uint64(hi)}
	t.Run("match", func(t *testing.T) {
		if err := tr.validateHello(good); err != nil {
			t.Fatalf("matching hello refused: %v", err)
		}
	})
	cases := []struct {
		name string
		edit func(*helloBody)
		want string // substring the refusal must contain
	}{
		{"frame version 1", func(h *helloBody) { h.version = 1 }, "frame version 1"},
		{"wrong n", func(h *helloBody) { h.n = n + 1 }, "n=18"},
		{"wrong rank count", func(h *helloBody) { h.ranks = ranks + 1 }, "4 ranks"},
		{"our own rank", func(h *helloBody) { h.rank, h.lo, h.hi = rank, 6, 12 }, "our own rank 1"},
		{"rank out of range", func(h *helloBody) { h.rank = ranks }, "rank 3 outside"},
		{"node range off partition", func(h *helloBody) { h.lo-- }, "partition says"},
	}
	seen := map[string]string{} // refusal message -> case; subtests run in order
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := good
			tc.edit(&h)
			err := tr.validateHello(h)
			if err == nil {
				t.Fatalf("hello %+v accepted", h)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if prev, dup := seen[err.Error()]; dup {
				t.Errorf("refused with the same message as %s: %q", prev, err)
			}
			seen[err.Error()] = tc.name
		})
	}
}
