package clique_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/graph"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
)

// ckptGraph is a small weighted graph on which every kernel runs more
// than one pass.
func ckptGraph() *graph.CSR {
	return graph.RandomGNPWeighted(8, 0.4, 9, 3)
}

// runWithCheckpoints runs kernel name to completion on a session
// checkpointing at every pass boundary and returns the completed
// kernel, the session, and the checkpoint path.
func runWithCheckpoints(t *testing.T, g *graph.CSR, name, dir string) (clique.Kernel, *clique.Session, string) {
	t.Helper()
	s, err := clique.New(g, clique.WithCheckpoint(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	k, err := clique.NewKernel(name, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), k); err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return k, s, clique.CheckpointPath(dir, name)
}

// TestResumeAfterClose pins the misuse contract: Resume on a closed
// session fails fast with ErrClosed, never deadlocking on the torn-down
// engine.
func TestResumeAfterClose(t *testing.T) {
	g := ckptGraph()
	_, s, path := runWithCheckpoints(t, g, "apsp", t.TempDir())
	s.Close()
	k, err := clique.NewKernel("apsp", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(context.Background(), k.(clique.Checkpointable), path); !errors.Is(err, clique.ErrClosed) {
		t.Fatalf("Resume on closed session = %v, want ErrClosed", err)
	}
}

// TestResumeIntoStartedKernel pins the other misuse contract: restoring
// into a kernel that has already run fails with ErrKernelStarted — both
// for a kernel that completed a Run and for a double Resume of the same
// kernel value.
func TestResumeIntoStartedKernel(t *testing.T) {
	g := ckptGraph()
	ctx := context.Background()
	ran, s, path := runWithCheckpoints(t, g, "apsp", t.TempDir())

	// The kernel that just ran is no longer fresh.
	if err := s.Resume(ctx, ran.(clique.Checkpointable), path); !errors.Is(err, clique.ErrKernelStarted) {
		t.Fatalf("Resume into a completed kernel = %v, want ErrKernelStarted", err)
	}

	// A fresh kernel resumes fine once; the second Resume of the same
	// value must be rejected.
	k, err := clique.NewKernel("apsp", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(ctx, k.(clique.Checkpointable), path); err != nil {
		t.Fatalf("first Resume: %v", err)
	}
	if err := s.Resume(ctx, k.(clique.Checkpointable), path); !errors.Is(err, clique.ErrKernelStarted) {
		t.Fatalf("second Resume of same kernel = %v, want ErrKernelStarted", err)
	}
}

// TestResumeRejectsMismatchedSessions pins checkpoint validation: a
// checkpoint resumes only into a session of the same clique size, and
// only into the kernel it was written for.
func TestResumeRejectsMismatchedSessions(t *testing.T) {
	g := ckptGraph()
	ctx := context.Background()
	_, _, path := runWithCheckpoints(t, g, "apsp", t.TempDir())

	wrongSize, err := clique.New(graph.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	defer wrongSize.Close()
	k, err := clique.NewKernel("apsp", graph.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongSize.Resume(ctx, k.(clique.Checkpointable), path); err == nil || !strings.Contains(err.Error(), "sized") {
		t.Errorf("Resume into wrong-sized session = %v, want size mismatch", err)
	}

	rightSession, err := clique.New(g)
	if err != nil {
		t.Fatal(err)
	}
	defer rightSession.Close()
	wrongKernel, err := clique.NewKernel("hop-limited", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := rightSession.Resume(ctx, wrongKernel.(clique.Checkpointable), path); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Errorf("Resume with wrong kernel = %v, want kernel mismatch", err)
	}
}

// TestResumeRejectsCorruptFiles feeds Resume a truncated checkpoint, a
// bit-flipped one, and garbage, expecting a descriptive error each time
// with no state applied and no deadlock.
func TestResumeRejectsCorruptFiles(t *testing.T) {
	g := ckptGraph()
	ctx := context.Background()
	dir := t.TempDir()
	_, s, path := runWithCheckpoints(t, g, "apsp", dir)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated": good[:len(good)/2],
		"garbage":   []byte("not a checkpoint at all, sorry"),
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bitflip"] = flipped

	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			bad := filepath.Join(dir, name+".ckpt")
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}
			k, err := clique.NewKernel("apsp", g)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Resume(ctx, k.(clique.Checkpointable), bad); err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			// The rejected resume must not have marked the kernel started:
			// a clean run on it still works.
			if err := s.Run(ctx, k); err != nil {
				t.Fatalf("run after rejected resume: %v", err)
			}
		})
	}
}

// TestResumeRejectsVersion1Checkpoint pins the format bumps: a
// well-formed version-1 file — the layout that also carried an engine
// snapshot blob ahead of the kernel state — and a well-formed version-2
// file — which also carried the link budget pair — each fail Resume
// with an error naming their version, leave the session's Stats and
// Digests as they were, and do not mark the kernel started.
func TestResumeRejectsVersion1Checkpoint(t *testing.T) {
	g := ckptGraph()
	ctx := context.Background()
	s, err := clique.New(g, clique.WithDigests())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ran, err := clique.NewKernel("apsp", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ctx, ran); err != nil {
		t.Fatal(err)
	}
	var kernBuf bytes.Buffer
	if err := ran.(clique.Checkpointable).SnapshotState(&kernBuf); err != nil {
		t.Fatal(err)
	}

	for _, version := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("version-%d", version), func(t *testing.T) {
			wantStats, wantDigests := s.Stats(), s.Digests()
			var file bytes.Buffer
			w := ckptio.NewWriter(&file)
			w.U64(0x43434b50_30303146) // "CCKP001F"
			w.U64(version)
			w.I64(int64(g.N))
			w.I64(core.WordBits) // the link budget pair: bits per link,
			w.I64(core.WordBits) // then bits per message
			w.String("apsp")
			w.I64(1)
			w.U64s(wantDigests)
			w.I64(int64(wantStats.Runs))
			w.I64(int64(wantStats.Kernels))
			w.I64(int64(wantStats.Engine.Rounds))
			w.U64(wantStats.Engine.TotalMsgs)
			w.U64(wantStats.Engine.TotalBytes)
			w.I64(int64(wantStats.Engine.Wall))
			if version == 1 {
				w.Blob(nil) // version 1's engine snapshot slot
			}
			w.Blob(kernBuf.Bytes())
			w.SumTrailer()
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "apsp.ckpt")
			if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}

			k, err := clique.NewKernel("apsp", g)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Resume(ctx, k.(clique.Checkpointable), path)
			if want := fmt.Sprintf("version %d", version); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Resume of a version-%d checkpoint = %v, want an error naming %s", version, err, want)
			}
			if got := s.Stats(); !reflect.DeepEqual(got, wantStats) {
				t.Errorf("rejected resume moved Stats: %+v, want %+v", got, wantStats)
			}
			if got := s.Digests(); !reflect.DeepEqual(got, wantDigests) {
				t.Errorf("rejected resume moved Digests: %v, want %v", got, wantDigests)
			}
			if err := s.Run(ctx, k); err != nil {
				t.Fatalf("run after rejected resume: %v", err)
			}
		})
	}
}

// TestCheckpointIgnoredForPlainKernels pins that WithCheckpoint leaves
// kernels that do not implement Checkpointable entirely alone: the run
// succeeds and no checkpoint file appears.
func TestCheckpointIgnoredForPlainKernels(t *testing.T) {
	g := ckptGraph()
	dir := t.TempDir()
	_, _, path := runWithCheckpoints(t, g, "bfs", dir)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint file for non-Checkpointable kernel (stat err %v)", err)
	}
}

// ckptResultsEqual compares kernel results; hopsets go through their
// canonical serialization because their matrices embed semiring
// function values, which reflect.DeepEqual refuses to compare.
func ckptResultsEqual(a, b any) bool {
	ha, aok := a.(*hopset.Hopset)
	hb, bok := b.(*hopset.Hopset)
	if aok || bok {
		enc := func(hs *hopset.Hopset) []byte {
			var buf bytes.Buffer
			w := ckptio.NewWriter(&buf)
			hopset.WriteHopset(w, hs)
			return buf.Bytes()
		}
		return aok && bok && bytes.Equal(enc(ha), enc(hb))
	}
	return reflect.DeepEqual(a, b)
}

// TestCheckpointableSweepOnDegenerateGraphs round-trips every
// Checkpointable kernel's state on the degenerate inputs (single
// vertex, zero edges): run to completion, snapshot the completed
// state, restore into a fresh kernel, and require the identical
// result. Where the run wrote a checkpoint file, Resume from it must
// reproduce the result too.
func TestCheckpointableSweepOnDegenerateGraphs(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"n1":           graph.Path(1),
		"edgeless":     graph.RandomGNP(4, 0, 1),
		"edgeless_wtd": graph.RandomGNP(4, 0, 1).WithUniformRandomWeights(2, 9),
	}
	ctx := context.Background()
	for gname, g := range graphs {
		for _, kname := range clique.Kernels() {
			probe, err := clique.NewKernel(kname, g)
			if err != nil {
				t.Fatalf("NewKernel(%q): %v", kname, err)
			}
			if _, ok := probe.(clique.Checkpointable); !ok {
				continue
			}
			t.Run(gname+"/"+kname, func(t *testing.T) {
				dir := t.TempDir()
				ran, s, path := runWithCheckpoints(t, g, kname, dir)

				// Direct state round trip of the completed kernel.
				var buf bytes.Buffer
				if err := ran.(clique.Checkpointable).SnapshotState(&buf); err != nil {
					t.Fatalf("SnapshotState: %v", err)
				}
				fresh, err := clique.NewKernel(kname, g)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.(clique.Checkpointable).RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("RestoreState: %v", err)
				}
				if !ckptResultsEqual(fresh.Result(), ran.Result()) {
					t.Errorf("restored result differs:\n restored: %v\n original: %v", fresh.Result(), ran.Result())
				}

				// Zero-pass runs (everything resolved locally) write no
				// file; when one exists, Resume must reproduce the result.
				if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
					return
				}
				resumed, err := clique.NewKernel(kname, g)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Resume(ctx, resumed.(clique.Checkpointable), path); err != nil {
					t.Fatalf("Resume: %v", err)
				}
				if !ckptResultsEqual(resumed.Result(), ran.Result()) {
					t.Errorf("resumed result differs:\n resumed: %v\n original: %v", resumed.Result(), ran.Result())
				}
			})
		}
	}
}
