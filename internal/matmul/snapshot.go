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
// square-and-multiply cursor: e, phase, base, result, and the operand of
// the last squaring (nil allowed).
func WritePower(w *ckptio.Writer, p *Power) {
	p.harvest()
	w.I64(int64(p.e))
	w.I64(int64(p.phase))
	WriteMatrix(w, p.base)
	WriteMatrix(w, p.result)
	WriteMatrix(w, p.prev)
}

// ReadPower decodes a cursor written by WritePower into a Power that
// continues from it. withPrev says whether the cursor carries the
// operand of the last squaring; one written before it did restores
// without it, so the next squaring streams whole rows and returns the
// same matrix. A cursor no Power can reach — a negative exponent, a
// phase other than 0 or 1, a result or previous operand of another
// dimension or semiring than the base, a previous operand without One
// on its diagonal — is refused.
func ReadPower(r *ckptio.Reader, withPrev bool) (*Power, error) {
	p := &Power{}
	p.e = int(r.I64())
	p.phase = int(r.I64())
	var err error
	if p.base, err = ReadMatrix(r); err != nil {
		return nil, err
	}
	if p.result, err = ReadMatrix(r); err != nil {
		return nil, err
	}
	if withPrev {
		if p.prev, err = ReadMatrix(r); err != nil {
			return nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if p.base == nil {
		return nil, fmt.Errorf("matmul: power state has no base matrix")
	}
	if p.e < 0 || p.phase != 0 && p.phase != 1 {
		return nil, fmt.Errorf("matmul: power state has exponent %d and phase %d", p.e, p.phase)
	}
	for _, m := range []*Matrix{p.result, p.prev} {
		if m != nil && checkPair(p.base.N, m.N, p.base.Sr, m.Sr) != nil {
			return nil, fmt.Errorf("matmul: power state carries a %d x %d %s matrix beside a %d x %d %s base",
				m.N, m.N, m.Sr.Name, p.base.N, p.base.N, p.base.Sr.Name)
		}
	}
	if p.prev != nil && !oneDiagonal(p.prev) {
		return nil, fmt.Errorf("matmul: power state carries a previous operand without One on its diagonal")
	}
	return p, nil
}

// WriteRelaxation harvests x's in-flight product, if any, and encodes
// its cursor: S, B, remaining, and the B before the last product (nil
// allowed).
func WriteRelaxation(w *ckptio.Writer, x *Relaxation) {
	x.harvest()
	WriteMatrix(w, x.s)
	WriteDense(w, x.b)
	w.I64(int64(x.remaining))
	WriteDense(w, x.prev)
}

// ReadRelaxation decodes a cursor written by WriteRelaxation into a
// Relaxation that continues from it. withPrev says whether the cursor
// carries the B before the last product; one written before it did
// restores without it, so the next product streams whole rows and
// returns the same columns. A cursor with that B has run a product, so
// its nodes' requester lists are rebuilt from S — host work, like
// restoring their rows — and the next product asks nothing, billing
// what an uninterrupted run bills.
func ReadRelaxation(r *ckptio.Reader, withPrev bool) (*Relaxation, error) {
	x := &Relaxation{}
	var err error
	if x.s, err = ReadMatrix(r); err != nil {
		return nil, err
	}
	if x.b, err = ReadDense(r); err != nil {
		return nil, err
	}
	x.remaining = int(r.I64())
	if withPrev {
		if x.prev, err = ReadDense(r); err != nil {
			return nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if x.s == nil || x.b == nil {
		return nil, fmt.Errorf("matmul: relaxation state has no operand")
	}
	x.reflexive = oneDiagonal(x.s)
	if x.prev != nil && (!x.reflexive || x.prev.N != x.b.N || x.prev.K != x.b.K || x.prev.Sr.Name != x.b.Sr.Name) {
		return nil, fmt.Errorf("matmul: relaxation state carries a previous operand it cannot have")
	}
	if x.prev != nil {
		x.reqs = requesters(x.s)
	}
	return x, nil
}
