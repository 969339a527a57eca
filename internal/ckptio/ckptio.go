// Package ckptio provides the primitive binary encoding layer shared by
// every checkpoint and wire format in the repository: the matrix state
// blobs of the multi-pass kernels (internal/matmul, internal/algo,
// internal/hopset), the pass-boundary checkpoint files the clique
// session writes (clique.WithCheckpoint), and the socket transport's
// frames (internal/engine).
//
// The encoding is deliberately boring: fixed-width little-endian words,
// length-prefixed slices and strings, one presence byte for optional
// values. Writer and Reader carry a sticky error so multi-field
// (de)serializers read as straight-line code and check a single Err()
// at the end, and both fold every byte they move into a running FNV-1a
// digest (Sum) so a checkpoint file can carry — and verify — an
// end-to-end integrity word. Truncated input (the torn tail of a short
// write) therefore surfaces as an io error or a digest mismatch, never
// as silently corrupt state.
package ckptio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// fnv1a64 folds the bytes of p into the running FNV-1a hash h.
func fnv1a64(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// FNVOffset is the FNV-1a 64-bit offset basis — the initial value of
// every digest chain in the checkpoint formats (Writer.Sum,
// engine round digests).
const FNVOffset uint64 = 14695981039346656037

// maxSliceLen caps length prefixes accepted by the Reader so a corrupt
// or adversarial header cannot trigger a huge allocation before the
// integrity check has a chance to run. 1<<28 elements is far beyond any
// feasible clique state (n <= 2^14 gives n^2 = 2^28 matrix entries).
const maxSliceLen = 1 << 28

// allocChunk bounds the initial capacity the Reader allocates for a
// length-prefixed slice (elements) or blob (bytes). Decoding then grows
// by appending as bytes actually arrive, so a truncated stream whose
// prefix claims a huge length allocates O(bytes present), not
// O(claimed length) — the property FuzzDecode enforces.
const allocChunk = 1 << 16

// Writer encodes fixed-width values to an io.Writer with a sticky
// error and a running FNV-1a digest over every byte written. After the
// last field, callers check Err once and may append Sum as an
// integrity trailer (written via SumTrailer so the trailer itself is
// excluded from the digest).
type Writer struct {
	w   io.Writer
	err error
	n   int64
	sum uint64
	buf [8]byte
}

// NewWriter returns a Writer encoding to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, sum: FNVOffset} }

// Err returns the first error any write encountered, or nil.
func (w *Writer) Err() error { return w.err }

// Count returns the number of bytes written so far (trailer included).
func (w *Writer) Count() int64 { return w.n }

// Sum returns the FNV-1a digest of every byte written so far,
// excluding any SumTrailer.
func (w *Writer) Sum() uint64 { return w.sum }

// write pushes p through the underlying writer, folding it into the
// digest unless raw is set (the trailer must not digest itself).
func (w *Writer) write(p []byte, raw bool) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = err
		return
	}
	if !raw {
		w.sum = fnv1a64(w.sum, p)
	}
}

// U64 writes one little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.write(w.buf[:], false)
}

// I64 writes one int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes one float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a bool as one full word (keeping every field 8 bytes).
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.write([]byte(s), false)
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(vs []int64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// I32s writes a length-prefixed []int32 (one word per element; row
// offset slices are small compared to the matrices they index).
func (w *Writer) I32s(vs []int32) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.I64(int64(v))
	}
}

// NodeIDs writes a length-prefixed []core.NodeID.
func (w *Writer) NodeIDs(vs []core.NodeID) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.I64(int64(v))
	}
}

// Blob writes a length-prefixed opaque byte blob — the container for
// a nested self-delimiting format (a kernel's state embedded inside a
// session checkpoint), keeping the outer digest over every nested byte.
func (w *Writer) Blob(p []byte) {
	w.U64(uint64(len(p)))
	w.write(p, false)
}

// SumTrailer appends the current digest as a raw (undigested) trailer
// word — the last field of a checkpoint file, verified by
// Reader.VerifySumTrailer.
func (w *Writer) SumTrailer() {
	binary.LittleEndian.PutUint64(w.buf[:], w.sum)
	w.write(w.buf[:], true)
}

// Reader decodes the Writer encoding with the same sticky-error and
// running-digest discipline. Decoding helpers return zero values after
// the first error; callers check Err once at the end.
type Reader struct {
	r   io.Reader
	err error
	sum uint64
	buf [8]byte
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, sum: FNVOffset} }

// Err returns the first error any read encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Sum returns the FNV-1a digest of every byte read so far, excluding
// any VerifySumTrailer word.
func (r *Reader) Sum() uint64 { return r.sum }

// read fills p from the underlying reader, folding it into the digest
// unless raw is set.
func (r *Reader) read(p []byte, raw bool) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = fmt.Errorf("ckptio: truncated input: %w", err)
		return
	}
	if !raw {
		r.sum = fnv1a64(r.sum, p)
	}
}

// U64 reads one little-endian uint64.
func (r *Reader) U64() uint64 {
	r.read(r.buf[:], false)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// I64 reads one int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads one float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a bool written by Writer.Bool.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// sliceLen reads and bounds-checks a length prefix.
func (r *Reader) sliceLen() int {
	n := r.U64()
	if r.err == nil && n > maxSliceLen {
		r.err = fmt.Errorf("ckptio: implausible slice length %d (corrupt input?)", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// readBytes reads exactly n bytes, growing the result in bounded
// chunks so a corrupt length prefix cannot force an allocation larger
// than the bytes actually present in the stream.
func (r *Reader) readBytes(n int) []byte {
	p := make([]byte, 0, min(n, allocChunk))
	for len(p) < n {
		c := min(n-len(p), allocChunk)
		start := len(p)
		p = append(p, make([]byte, c)...)
		r.read(p[start:], false)
		if r.err != nil {
			return nil
		}
	}
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen()
	if n == 0 {
		return ""
	}
	p := r.readBytes(n)
	if r.err != nil {
		return ""
	}
	return string(p)
}

// U64s reads a length-prefixed []uint64 (nil when empty).
func (r *Reader) U64s() []uint64 {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	vs := make([]uint64, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		v := r.U64()
		if r.err != nil {
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}

// I64s reads a length-prefixed []int64 (nil when empty).
func (r *Reader) I64s() []int64 {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	vs := make([]int64, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		v := r.I64()
		if r.err != nil {
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}

// I32s reads a length-prefixed []int32 written by Writer.I32s.
func (r *Reader) I32s() []int32 {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	vs := make([]int32, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		v := int32(r.I64())
		if r.err != nil {
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}

// NodeIDs reads a length-prefixed []core.NodeID (nil when empty).
func (r *Reader) NodeIDs() []core.NodeID {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	vs := make([]core.NodeID, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		v := core.NodeID(r.I64())
		if r.err != nil {
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}

// Blob reads a length-prefixed opaque byte blob written by Writer.Blob
// (nil when empty).
func (r *Reader) Blob() []byte {
	n := r.sliceLen()
	if n == 0 {
		return nil
	}
	p := r.readBytes(n)
	if r.err != nil {
		return nil
	}
	return p
}

// VerifySumTrailer reads the raw trailer word written by
// Writer.SumTrailer and checks it against the digest of everything read
// before it, recording a descriptive error on mismatch.
func (r *Reader) VerifySumTrailer() {
	want := r.sum
	r.read(r.buf[:], true)
	if r.err != nil {
		return
	}
	got := binary.LittleEndian.Uint64(r.buf[:])
	if got != want {
		r.err = fmt.Errorf("ckptio: integrity digest mismatch: file says %#x, content hashes to %#x (truncated or corrupt checkpoint)", got, want)
	}
}
