// Checkpoint serialization for the hopset construction kernel and its
// products. ConstructKernel implements clique.Checkpointable: its
// inter-pass state is the resolved Params, the sampled hub list, and
// the cursor of its matmul.Relaxation (the rounded base adjacency, the
// current hub distance columns, the remaining product count, and the
// columns before the last product) — all
// plain data once the in-flight pass has been harvested at a pass
// boundary. The finished *Hopset itself is
// never serialized by the kernel: the done state re-runs assemble on
// restore, which is deterministic given the serialized fields.
package hopset

import (
	"fmt"
	"io"

	"github.com/paper-repo-growth/doryp20/clique"
	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/matmul"
)

// kernelStateVersion stamps the ConstructKernel state blob. Version 2
// added the relaxation's previous columns, version 3 its held bit;
// blobs from version 1 on still restore.
const kernelStateVersion uint64 = 3

// writeParams encodes p to the ckptio writer.
func writeParams(w *ckptio.Writer, p Params) {
	w.I64(int64(p.Beta))
	w.F64(p.Eps)
	w.F64(p.HubRate)
	w.I64(p.Seed)
}

// readParams decodes parameters written by writeParams.
func readParams(r *ckptio.Reader) Params {
	return Params{
		Beta:    int(r.I64()),
		Eps:     r.F64(),
		HubRate: r.F64(),
		Seed:    r.I64(),
	}
}

// WriteHopset encodes hs (nil allowed) to the ckptio writer.
func WriteHopset(w *ckptio.Writer, hs *Hopset) {
	if hs == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.I64(int64(hs.Beta))
	w.F64(hs.Eps)
	w.NodeIDs(hs.Hubs)
	matmul.WriteMatrix(w, hs.Shortcuts)
	matmul.WriteMatrix(w, hs.Base)
}

// ReadHopset decodes a hopset written by WriteHopset (nil when
// absent).
func ReadHopset(r *ckptio.Reader) (*Hopset, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	hs := &Hopset{}
	hs.Beta = int(r.I64())
	hs.Eps = r.F64()
	hs.Hubs = r.NodeIDs()
	var err error
	if hs.Shortcuts, err = matmul.ReadMatrix(r); err != nil {
		return nil, err
	}
	if hs.Base, err = matmul.ReadMatrix(r); err != nil {
		return nil, err
	}
	return hs, r.Err()
}

// SnapshotState serializes the construction's inter-pass state. Called
// at pass boundaries only (clique.Checkpointable); the relaxation
// harvests its in-flight product, if any, first.
func (k *ConstructKernel) SnapshotState(w io.Writer) error {
	cw := ckptio.NewWriter(w)
	cw.U64(kernelStateVersion)
	cw.I64(int64(k.stage))
	writeParams(cw, k.params)
	cw.NodeIDs(k.hubs)
	matmul.WriteRelaxation(cw, k.rx)
	cw.SumTrailer()
	return cw.Err()
}

// RestoreState loads state written by SnapshotState into a fresh
// kernel. A kernel that has already started returns
// clique.ErrKernelStarted; a done-state blob re-runs the deterministic
// assembly so Result is available immediately.
func (k *ConstructKernel) RestoreState(r io.Reader) error {
	if k.stage != 0 {
		return clique.ErrKernelStarted
	}
	cr := ckptio.NewReader(r)
	v := cr.U64()
	if cr.Err() == nil && (v < 1 || v > kernelStateVersion) {
		return fmt.Errorf("hopset: kernel state version %d, this build reads versions 1 to %d", v, kernelStateVersion)
	}
	stage := int(cr.I64())
	params := readParams(cr)
	hubs := cr.NodeIDs()
	rx, err := matmul.ReadRelaxation(cr, v >= 2, v >= 3)
	if err != nil {
		return err
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return err
	}
	if stage != 1 && (stage != 2 || rx.Result() == nil) {
		return fmt.Errorf("hopset: kernel state has implausible stage %d", stage)
	}
	k.stage, k.params, k.hubs, k.rx = stage, params, hubs, rx
	if stage == 2 {
		return k.finish()
	}
	return nil
}
