// Checkpoint serialization for the multi-pass algorithm kernels. The
// three implementations of clique.Checkpointable here — powerKernel,
// pipelineKernel, MSTKernel — share one shape: SnapshotState harvests
// the pass that just completed (harvest is idempotent, so the live run
// is undisturbed; matmul.WritePower and WriteRelaxation do it for the
// product loops) and serializes the remaining inter-pass state —
// matrices plus a pass cursor — in the internal/ckptio format with a
// version word and integrity trailer; RestoreState refuses kernels that
// have already started (clique.ErrKernelStarted), verifies the trailer
// before applying anything, and recomputes derived results (distance
// rows) from the restored matrices rather than trusting serialized
// copies.
package algo

import (
	"bytes"
	"fmt"
	"io"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/hopset"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// kernelStateVersion stamps every algo kernel state blob. Version 2
// unified the per-kernel layouts into the powerKernel and
// pipelineKernel ones; version 3 added the relaxation's previous
// columns to the pipelineKernel one; version 4 added the last
// squaring's operand to the power cursor; version 5 added the held bit
// to the relaxation cursor. Blobs from oldestStateVersion on still
// restore: clique.Resume refuses checkpoint files of a format older
// than 3, and every file of format 3 on carries version 4 or later.
const (
	kernelStateVersion uint64 = 5
	oldestStateVersion uint64 = 4
)

// readStateVersion reads the leading version word and checks that this
// build reads it.
func readStateVersion(cr *ckptio.Reader) (uint64, error) {
	v := cr.U64()
	if cr.Err() == nil && (v < oldestStateVersion || v > kernelStateVersion) {
		return v, fmt.Errorf("algo: kernel state version %d, this build reads versions %d to %d", v, oldestStateVersion, kernelStateVersion)
	}
	return v, nil
}

// readStateHeader reads the version word and then checks the kernel
// name a spec-driven kernel's blob leads with, so state never lands in
// a kernel built from a different spec.
func readStateHeader(cr *ckptio.Reader, name string) (uint64, error) {
	v, err := readStateVersion(cr)
	if err != nil {
		return v, err
	}
	if got := cr.String(); cr.Err() == nil && got != name {
		return v, fmt.Errorf("algo: state is for kernel %q, not %q", got, name)
	}
	return v, nil
}

// SnapshotState serializes the power iteration: whether the result has
// been projected, then the (possibly absent) square-and-multiply cursor.
func (k *powerKernel) SnapshotState(w io.Writer) error {
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.String(k.Name())
	cw.Bool(k.done)
	cw.Bool(k.pw != nil)
	if k.pw != nil {
		matmul.WritePower(cw, k.pw)
	}
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise), re-projecting the result
// when the blob captured a completed run.
func (k *powerKernel) RestoreState(r io.Reader) error {
	if k.pw != nil || k.done {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if _, err := readStateHeader(cr, k.Name()); err != nil {
		return err
	}
	done := cr.Bool()
	var pw *matmul.Power
	var err error
	if cr.Bool() {
		if pw, err = matmul.ReadPower(cr); err != nil {
			return err
		}
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if pw == nil || done && pw.Dense() == nil {
		return fmt.Errorf("algo: %s state has no power cursor", k.Name())
	}
	k.pw, k.done = pw, done
	if done {
		k.result = k.spec.project(pw)
	}
	return nil
}

// SnapshotState serializes the two-stage pipeline: the stage cursor and
// sources, then stage 1's own checkpoint blob while it is running, or
// the hopset it built (if any) plus the relaxation cursor afterwards.
func (k *pipelineKernel) SnapshotState(w io.Writer) error {
	var stage1 bytes.Buffer
	if k.s1 != nil {
		if err := k.s1.SnapshotState(&stage1); err != nil {
			return err
		}
	}
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.String(k.Name())
	cw.I64(int64(k.stage))
	cw.NodeIDs(k.sources)
	cw.Blob(stage1.Bytes())
	hopset.WriteHopset(cw, k.hs)
	cw.Bool(k.rx != nil)
	if k.rx != nil {
		matmul.WriteRelaxation(cw, k.rx)
	}
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise). A running stage 1 is
// restored through its own Checkpointable implementation; a
// completed-run blob re-projects the result.
func (k *pipelineKernel) RestoreState(r io.Reader) error {
	if k.stage != 0 {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	version, err := readStateHeader(cr, k.Name())
	if err != nil {
		return err
	}
	stage := int(cr.I64())
	sources := cr.NodeIDs()
	stage1 := cr.Blob()
	hs, err := hopset.ReadHopset(cr)
	if err != nil {
		return err
	}
	var rx *matmul.Relaxation
	if cr.Bool() {
		if rx, err = matmul.ReadRelaxation(cr, version >= 5); err != nil {
			return err
		}
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	var s1 clique.Checkpointable
	switch {
	case stage == 1 && k.spec.stage1 != nil && rx == nil:
		s1 = k.spec.stage1()
		if err := s1.RestoreState(bytes.NewReader(stage1)); err != nil {
			return err
		}
	case stage == 2 && rx != nil, stage == 3 && rx != nil && rx.Result() != nil:
		// The relaxation cursor carries all that stages 2 and 3 need.
	default:
		return fmt.Errorf("algo: %s state has implausible stage %d", k.Name(), stage)
	}
	k.stage, k.sources, k.s1, k.hs, k.rx = stage, sources, s1, hs, rx
	if stage == 3 {
		k.finish()
	}
	return nil
}

// SnapshotState serializes the Borůvka state at a phase boundary: the
// component labels and the forest accumulated so far. The harvest —
// reading the leader choices off the gathered rows and merging
// components — runs first, so the blob never carries raw pass state.
func (k *MSTKernel) SnapshotState(w io.Writer) error {
	k.harvest()
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.Bool(k.started)
	cw.Bool(k.done)
	cw.I64(int64(k.n))
	cw.I64(k.weight)
	cw.NodeIDs(k.comp)
	flat := make([]int64, 0, 3*len(k.edges))
	for _, e := range k.edges {
		flat = append(flat, int64(e.U), int64(e.V), e.W)
	}
	cw.I64s(flat)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel (clique.ErrKernelStarted otherwise). The graph-derived fields
// (adjacency, packing widths) are rebuilt by the first Next call on
// the restored session, which re-runs start's validation against the
// session graph.
func (k *MSTKernel) RestoreState(r io.Reader) error {
	if k.started || k.done {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	if _, err := readStateVersion(cr); err != nil {
		return err
	}
	started := cr.Bool()
	done := cr.Bool()
	n := int(cr.I64())
	weight := cr.I64()
	comp := cr.NodeIDs()
	flat := cr.I64s()
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if len(flat)%3 != 0 {
		return fmt.Errorf("algo: %s state has a torn edge list (%d words)", k.Name(), len(flat))
	}
	if started && len(comp) != n {
		return fmt.Errorf("algo: %s state has %d component labels for n = %d", k.Name(), len(comp), n)
	}
	edges := make([]MSTEdge, 0, len(flat)/3)
	for i := 0; i+2 < len(flat); i += 3 {
		edges = append(edges, MSTEdge{U: core.NodeID(flat[i]), V: core.NodeID(flat[i+1]), W: flat[i+2]})
	}
	k.started, k.done, k.n, k.weight, k.comp, k.edges = started, done, n, weight, comp, edges
	return nil
}
