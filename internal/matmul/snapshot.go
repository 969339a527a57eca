// Matrix and product-loop (de)serialization for kernel checkpoints.
// Multi-pass kernels (internal/algo, internal/hopset) carry their
// inter-pass state as sparse or dense matrices and the cursor of the
// Power or Relaxation they drive; these helpers encode them in the
// internal/ckptio wire format so kernel SnapshotState/RestoreState
// implementations stay one-liners per field. Semirings travel by Name
// (the function fields cannot be serialized) and are rebuilt via
// core.SemiringByName on read; every read ends with Matrix.Validate so
// a corrupt blob surfaces as a structural error, never as a plausible
// but wrong matrix.
package matmul

import (
	"fmt"
	"math"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
)

// WriteMatrix encodes m (which may be nil — a single presence word) to
// the ckptio writer.
func WriteMatrix(w *ckptio.Writer, m *Matrix) {
	if m == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.I64(int64(m.N))
	w.String(m.Sr.Name)
	w.I32s(m.Rows)
	w.NodeIDs(m.Cols)
	w.I64s(m.Vals)
}

// ReadMatrix decodes a matrix written by WriteMatrix, rebuilding the
// semiring from its name and validating the structural invariants.
// Returns nil for an absent matrix. Errors are recorded on the reader
// (sticky), so multi-matrix decoders check r.Err once at the end — but
// a structural validation failure is also returned directly.
func ReadMatrix(r *ckptio.Reader) (*Matrix, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	m := &Matrix{}
	m.N = int(r.I64())
	name := r.String()
	m.Rows = r.I32s()
	m.Cols = r.NodeIDs()
	m.Vals = r.I64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	sr, err := core.SemiringByName(name)
	if err != nil {
		return nil, err
	}
	m.Sr = sr
	if m.N < 0 {
		return nil, fmt.Errorf("matmul: serialized matrix has negative dimension %d", m.N)
	}
	if m.Rows == nil && m.N+1 <= 1 {
		// ckptio decodes empty slices as nil; a 0 x 0 matrix still needs
		// its one-element offset slice.
		m.Rows = make([]int32, m.N+1)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("matmul: corrupt serialized matrix: %w", err)
	}
	return m, nil
}

// WriteDense encodes d (nil allowed) to the ckptio writer.
func WriteDense(w *ckptio.Writer, d *Dense) {
	if d == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.I64(int64(d.N))
	w.I64(int64(d.K))
	w.String(d.Sr.Name)
	w.I64s(d.Vals)
}

// ReadDense decodes a dense matrix written by WriteDense, checking the
// value slab matches the declared N x K shape.
func ReadDense(r *ckptio.Reader) (*Dense, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	d := &Dense{}
	d.N = int(r.I64())
	d.K = int(r.I64())
	name := r.String()
	d.Vals = r.I64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	sr, err := core.SemiringByName(name)
	if err != nil {
		return nil, err
	}
	d.Sr = sr
	if d.N < 0 || d.K < 0 || d.K > 0 && d.N > math.MaxInt/d.K || len(d.Vals) != d.N*d.K {
		return nil, fmt.Errorf("matmul: corrupt serialized dense matrix: %d values for shape %d x %d", len(d.Vals), d.N, d.K)
	}
	if d.Vals == nil {
		d.Vals = []int64{}
	}
	return d, nil
}

// WritePower harvests p's in-flight product, if any, and encodes its
// square-and-multiply cursor: e; one word that holds the phase in bit 0
// and, in bit 1, whether the cube nodes hold the blocks of the last
// squaring's operand (held); base, result, and that operand (nil
// allowed), each as a Matrix. The blocks themselves are node state a
// restore rebuilds from the operand, so the cursor carries only the bit.
func WritePower(w *ckptio.Writer, p *Power) {
	p.harvest()
	w.I64(int64(p.e))
	step := int64(p.phase)
	if p.held() {
		step |= 2
	}
	w.I64(step)
	WriteMatrix(w, p.baseRows())
	for _, d := range []*Dense{p.result, p.prev} {
		var m *Matrix
		if d != nil {
			m = sparse(d)
		}
		WriteMatrix(w, m)
	}
}

// ReadPower decodes a cursor written by WritePower into a Power that
// continues from it. A cursor whose bit 1 says the cube nodes held the
// blocks of the last squaring's operand restores with them marked held,
// and each cube node rebuilds its block from the operand when it next
// squares, so the restored chain bills what an uninterrupted one does.
// A cursor no Power can reach — a negative exponent, a phase other than
// 0 or 1, held blocks without a previous operand, a result or previous
// operand of another dimension or semiring than the base, a previous
// operand that is not symmetric or lacks One on its diagonal — is
// refused. The base is checked where a fresh chain's A is, at the
// restored chain's first product (checkLoop).
func ReadPower(r *ckptio.Reader) (*Power, error) {
	p := &Power{}
	p.e = int(r.I64())
	step := r.I64()
	p.phase = int(step & 1)
	var result, prev *Matrix
	var err error
	if p.rows, err = ReadMatrix(r); err != nil {
		return nil, err
	}
	if result, err = ReadMatrix(r); err != nil {
		return nil, err
	}
	if prev, err = ReadMatrix(r); err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if p.rows == nil {
		return nil, fmt.Errorf("matmul: power state has no base matrix")
	}
	if p.e < 0 || step < 0 || step > 3 {
		return nil, fmt.Errorf("matmul: power state has exponent %d and phase word %d", p.e, step)
	}
	p.cube = &cubePlan{held: step&2 != 0}
	if p.cube.held && prev == nil {
		return nil, fmt.Errorf("matmul: power state says its cube nodes hold blocks of a previous operand it does not carry")
	}
	for _, m := range []*Matrix{result, prev} {
		if m != nil && checkPair(p.rows.N, m.N, p.rows.Sr, m.Sr) != nil {
			return nil, fmt.Errorf("matmul: power state carries a %d x %d %s matrix beside a %d x %d %s base",
				m.N, m.N, m.Sr.Name, p.rows.N, p.rows.N, p.rows.Sr.Name)
		}
	}
	if prev != nil {
		if err := checkLoop(prev); err != nil {
			return nil, fmt.Errorf("matmul: power state carries a previous operand no chain squares: %w", err)
		}
		p.prev = dense(prev)
	}
	if result != nil {
		p.result = dense(result)
	}
	return p, nil
}

// WriteRelaxation harvests x's in-flight product, if any, and encodes
// its cursor: S, B, remaining, the B before the last product (nil
// allowed), and whether the cube nodes hold S's blocks. The blocks
// themselves are node state a restore reads off S, so the cursor
// carries only the bit.
func WriteRelaxation(w *ckptio.Writer, x *Relaxation) {
	x.harvest()
	WriteMatrix(w, x.s)
	WriteDense(w, x.b)
	w.I64(int64(x.remaining))
	WriteDense(w, x.prev)
	w.Bool(x.cube != nil && x.cube.held)
}

// ReadRelaxation decodes a cursor written by WriteRelaxation into a
// Relaxation that continues from it. withHeld says whether it carries
// the held bit; one whose bit is set restores with S's blocks held, so
// its next product ships only Δ as an uninterrupted run's does, and one
// without the bit ships them again. Every cursor has run the local first
// product (NewRelaxation runs it), so the next product is an engine one
// and bills what an uninterrupted run bills. A cursor with products left
// but no previous columns, or previous columns of another shape, is
// refused, and so is one that holds blocks of an S that prices as
// row-pull or breaks the loops' precondition (checkLoop). S is checked
// where a fresh Relaxation's is, at its first engine product, unless
// the cursor's blocks are held.
func ReadRelaxation(r *ckptio.Reader, withHeld bool) (*Relaxation, error) {
	x := &Relaxation{}
	var err error
	if x.s, err = ReadMatrix(r); err != nil {
		return nil, err
	}
	if x.b, err = ReadDense(r); err != nil {
		return nil, err
	}
	x.remaining = int(r.I64())
	if x.prev, err = ReadDense(r); err != nil {
		return nil, err
	}
	held := withHeld && r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if x.s == nil || x.b == nil {
		return nil, fmt.Errorf("matmul: relaxation state has no operand")
	}
	if x.prev == nil && x.remaining > 0 || x.prev != nil && (x.prev.N != x.b.N || x.prev.K != x.b.K || x.prev.Sr.Name != x.b.Sr.Name) {
		return nil, fmt.Errorf("matmul: relaxation state carries previous columns it cannot have")
	}
	if held {
		if err := checkLoop(x.s); err != nil {
			return nil, err
		}
		if x.cube = relaxPlan(x.s); x.cube == nil || x.prev == nil {
			return nil, fmt.Errorf("matmul: relaxation state says its cube nodes hold blocks of an S it does not relax by blocks")
		}
		x.cube.held, x.priced = true, true
	}
	return x, nil
}
