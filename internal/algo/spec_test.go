package algo

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// runPasses runs k to completion on a fresh session over g and returns
// the number of engine passes it took.
func runPasses(t *testing.T, g *graph.CSR, k clique.Kernel) int {
	t.Helper()
	s, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatalf("running %s: %v", k.Name(), err)
	}
	return s.Stats().Runs
}

// TestPowerSpecPassCounts pins the pass count of every powerKernel spec
// on paths, where no squaring is a fixpoint and so none is skipped: the
// squaring specs run exactly ceil(log2(n-1)) products and never a
// multiply step, and hop-limited runs square-and-multiply's
// floor(log2 h) + popcount(h) - 1 for the clamped bound. Every result
// is checked against its sequential oracle in the same loop.
func TestPowerSpecPassCounts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9, 33} {
		g := graph.Path(n).WithUniformRandomWeights(int64(n), 9)
		squarings := 0
		if n > 2 {
			squarings = bits.Len(uint(n - 2)) // ceil(log2(n-1))
		}
		apsp, widest, closure := NewAPSPKernel(), NewWidestPathKernel(), NewTransitiveClosureKernel()
		for _, k := range []clique.Kernel{apsp, widest, closure} {
			if got := runPasses(t, g, k); got != squarings {
				t.Errorf("n=%d: %s ran %d passes, want %d", n, k.Name(), got, squarings)
			}
		}
		for v := 0; v < n; v++ {
			src := core.NodeID(v)
			if want := BellmanFordRef(g, src); !reflect.DeepEqual(apsp.Dist()[v], want) {
				t.Errorf("n=%d: apsp row %d = %v, want %v", n, v, apsp.Dist()[v], want)
			}
			if want := WidestRef(g, src); !reflect.DeepEqual(widest.Width()[v], want) {
				t.Errorf("n=%d: widest row %d = %v, want %v", n, v, widest.Width()[v], want)
			}
			if want := ClosureRef(g, src); !reflect.DeepEqual(closure.Reach()[v], want) {
				t.Errorf("n=%d: closure row %d = %v, want %v", n, v, closure.Reach()[v], want)
			}
		}
		for _, h := range []int{0, 1, 5, 7, n + 7} {
			clamped, want := min(h, n-1), 0
			if clamped >= 1 {
				want = bits.Len(uint(clamped)) - 1 + bits.OnesCount(uint(clamped)) - 1
			}
			k := NewHopLimitedKernel(h)
			if got := runPasses(t, g, k); got != want {
				t.Errorf("n=%d h=%d: hop-limited ran %d passes, want %d", n, h, got, want)
			}
			if ref := hopLimitedRef(g, h); !reflect.DeepEqual(k.Dist(), ref) {
				t.Errorf("n=%d h=%d: hop-limited = %v, want %v", n, h, k.Dist(), ref)
			}
		}
	}
}

// TestGraphKernelsRejectSizeOnlySession runs every graph-consuming
// constructor — with empty source lists too, which once skipped the
// only nil check on the way to g.N — on a clique.NewSize session: each
// must fail with the graph-bound-session error from its single start
// path, never by panicking. (RelaxKernel is absent by design: it runs
// on any session of its matrix's size.)
func TestGraphKernelsRejectSizeOnlySession(t *testing.T) {
	one, p := []core.NodeID{0}, hopset.Params{}
	for _, k := range []clique.Kernel{
		NewBFSKernel(0), NewBellmanFordKernel(0), NewMSTKernel(),
		NewAPSPKernel(), NewWidestPathKernel(), NewTransitiveClosureKernel(), NewHopLimitedKernel(3),
		NewKSourceKernel(nil, 2), NewKSourceKernel(one, 2),
		NewWidestKSourceKernel(nil, 2), NewWidestKSourceKernel(one, 2),
		NewApproxSSSPKernel(0, p), NewApproxKSourceKernel(nil, p), NewApproxKSourceKernel(one, p),
		NewDiameterEstimateKernel(2, 1), NewApproxDiameterEstimateKernel(2, 1, p),
	} {
		s, err := clique.NewSize(4)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Run(context.Background(), k)
		s.Close()
		var kp *clique.KernelPanicError
		if errors.As(err, &kp) {
			t.Errorf("%s panicked on a NewSize session: %v", k.Name(), err)
		} else if err == nil || !strings.Contains(err.Error(), "requires a graph-bound session") {
			t.Errorf("%s on a NewSize session: err = %v, want the graph-bound-session error", k.Name(), err)
		}
	}
}

// TestRestoreStateRejectsOtherVersions covers the three
// clique.Checkpointable implementations: a state blob stamped with a
// format version older than the oldest this build reads (1) or a future
// one (5) is refused with the version error and leaves the kernel unstarted, so the same kernel
// value still completes a fresh run; the unmodified blob restores.
func TestRestoreStateRejectsOtherVersions(t *testing.T) {
	g := graph.RandomGNPWeighted(12, 0.3, 9, 5)
	for name, fresh := range map[string]func() clique.Checkpointable{
		"powerKernel":    func() clique.Checkpointable { return NewAPSPKernel() },
		"pipelineKernel": func() clique.Checkpointable { return NewKSourceKernel([]core.NodeID{0, 5}, 3) },
		"MSTKernel":      func() clique.Checkpointable { return NewMSTKernel() },
	} {
		ref := fresh()
		runKernel(t, g, ref)
		var blob bytes.Buffer
		if err := ref.SnapshotState(&blob); err != nil {
			t.Fatalf("%s: SnapshotState: %v", name, err)
		}
		if got := binary.LittleEndian.Uint64(blob.Bytes()); got != kernelStateVersion {
			t.Fatalf("%s: blob leads with %d, want the version word %d", name, got, kernelStateVersion)
		}
		restored := fresh()
		if err := restored.RestoreState(bytes.NewReader(blob.Bytes())); err != nil {
			t.Fatalf("%s: restoring an unmodified blob: %v", name, err)
		}
		if !reflect.DeepEqual(restored.Result(), ref.Result()) {
			t.Errorf("%s: restored result differs from the run that wrote the blob", name)
		}
		for _, version := range []uint64{oldestStateVersion - 1, kernelStateVersion + 1} {
			stale := bytes.Clone(blob.Bytes())
			binary.LittleEndian.PutUint64(stale, version)
			k := fresh()
			err := k.RestoreState(bytes.NewReader(stale))
			if err == nil || !strings.Contains(err.Error(), "kernel state version") {
				t.Fatalf("%s: version-%d blob: err = %v, want the version error", name, version, err)
			}
			runKernel(t, g, k)
			if !reflect.DeepEqual(k.Result(), ref.Result()) {
				t.Errorf("%s: fresh run after a rejected version-%d restore differs from the reference", name, version)
			}
		}
	}
}
