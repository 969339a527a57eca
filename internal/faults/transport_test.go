package faults

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// ringNode is the deterministic traffic the transport fault tests run:
// in each round r < rounds, node v sends one word to its ring successor
// with a payload that is a pure function of (v, r), so digests across
// runs and transports are comparable bit for bit.
type ringNode struct {
	n, rounds int
}

func (rn *ringNode) Round(ctx *engine.Ctx, r core.Round, inbox []engine.Message) error {
	if int(r) >= rn.rounds || rn.n < 2 {
		return nil
	}
	v := uint64(ctx.ID())
	dst := (ctx.ID() + 1) % core.NodeID(rn.n)
	return ctx.Send(dst, v*100003+uint64(r)*31+7)
}

// faultOpts is the engine configuration the transport fault tests run
// under: digests on, quick deadlines via the transport.
func faultOpts(tr engine.Transport) engine.Options {
	return engine.Options{Transport: tr, RecordDigests: true}
}

// runSocketPair drives a 2-rank unix-socket clique of n ringNodes with
// a short frame deadline and returns each rank's Run error. Engines
// are constructed on the per-rank goroutines because multi-rank Bind
// handshakes block until every peer arrives.
func runSocketPair(t *testing.T, n, rounds int, timeout time.Duration) []error {
	t.Helper()
	trs, err := engine.LoopbackCluster(2, "unix", timeout)
	if err != nil {
		t.Fatalf("LoopbackCluster: %v", err)
	}
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			e, err := engine.New(n, faultOpts(trs[rank]))
			if err != nil {
				trs[rank].Close()
				errs[rank] = err
				return
			}
			defer e.Close()
			nodes := make([]engine.Node, n)
			for j := range nodes {
				nodes[j] = &ringNode{n: n, rounds: rounds}
			}
			_, errs[rank] = e.Run(context.Background(), nodes)
		}(i)
	}
	wg.Wait()
	return errs
}

// TestTransportFrameFaults drives each frame-level fault mode against
// a live 2-rank socket clique and requires a loud error on every rank
// — a mangled frame must never degrade into silently wrong traffic.
func TestTransportFrameFaults(t *testing.T) {
	cases := []struct {
		name string
		mode TransportMode
		// want is a substring some rank's error must carry, pinning the
		// failure to the intended detection path; empty means any error.
		want string
	}{
		// The dropped round-2 frame leaves rank 1 waiting while rank 0
		// moves on; rank 1's next read sees a future sequence number.
		{"drop", DropFrame, ""},
		// The duplicate arrives after the genuine frame and fails the
		// sequence check as replayed traffic.
		{"dup", DupFrame, "duplicated or reordered frame"},
		// The flipped bit trips the ckptio integrity trailer.
		{"corrupt", CorruptFrame, "integrity digest mismatch"},
		// The severed connection surfaces on the sender immediately.
		{"kill", KillConn, "fault injection"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{
				TransportSrc:  0,
				TransportDst:  1,
				TransportKind: engine.FrameKindRound,
				TransportSeq:  2,
				TransportMode: tc.mode,
			}
			Install(p)
			defer Uninstall()
			errs := runSocketPair(t, 16, 6, 3*time.Second)
			for rank, err := range errs {
				if err == nil {
					t.Errorf("rank %d completed cleanly under a %s fault", rank, tc.name)
				}
			}
			if tc.want != "" {
				found := false
				for _, err := range errs {
					if err != nil && strings.Contains(err.Error(), tc.want) {
						found = true
					}
				}
				if !found {
					t.Errorf("no rank's error mentions %q: %v", tc.want, errs)
				}
			}
			if !p.tfired.Load() {
				t.Error("the transport fault never fired")
			}
		})
	}
}
