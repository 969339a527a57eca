// Checkpoint/restore for kernel runs. A Session configured with
// WithCheckpoint persists a versioned checkpoint file at pass
// boundaries — the points where a multi-pass kernel's state is a
// serializable value (matrices plus a pass cursor) rather than live
// per-node handler state — and Session.Resume reconstructs the run
// from the latest file: a fresh kernel's state is restored, the
// session's cumulative stats and replay digests are rewound to the
// checkpoint, and the remaining passes execute exactly as the
// uninterrupted run would have (bit-identical results and digest
// chains; internal/faults holds the property tests).
//
// Files are written atomically (temp file, fsync, rename), carry a
// magic/version header, record the clique size so a mismatched resume
// is rejected, and end in a ckptio
// integrity trailer so a torn or corrupted file is detected before any
// state is applied.
package clique

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
)

// Checkpointable is a Kernel whose inter-pass state can be serialized
// and restored — the contract WithCheckpoint and Session.Resume
// operate on. SnapshotState is called only at pass boundaries (after a
// completed engine pass, never mid-round) and must write a
// self-delimiting encoding of everything the kernel needs to continue;
// RestoreState is its inverse and must be called on a fresh, unstarted
// kernel (a started kernel returns ErrKernelStarted).
type Checkpointable interface {
	Kernel
	// SnapshotState serializes the kernel's inter-pass state to w.
	SnapshotState(w io.Writer) error
	// RestoreState loads state written by SnapshotState into a fresh
	// kernel, returning ErrKernelStarted if the kernel has already
	// produced a pass.
	RestoreState(r io.Reader) error
}

// ErrClosed is returned by Session methods after Close.
var ErrClosed = errors.New("clique: session is closed")

// ErrStopped is returned by Run/Resume when RequestStop interrupted
// the kernel at a pass boundary. If checkpointing is configured the
// final checkpoint has been written; the session stays usable.
var ErrStopped = errors.New("clique: run stopped at a pass boundary by RequestStop")

// ErrKernelStarted is returned by RestoreState (and thus Resume) when
// the target kernel has already started running — restored state must
// land in a fresh kernel.
var ErrKernelStarted = errors.New("clique: cannot restore state into a kernel that has already run")

// KernelPanicError reports a kernel that panicked while the session
// was driving it — in a node Round handler (recovered by the engine on
// the worker) or in the kernel's own Next pass-factory. The session
// and its warm engine survive; only the panicking kernel's run fails.
type KernelPanicError struct {
	// Kernel is the panicking kernel's Name.
	Kernel string
	// Node is the clique node whose handler panicked, or -1 when the
	// panic came from the kernel's Next call.
	Node core.NodeID
	// Round is the round the handler panicked in (0 for Next panics).
	Round core.Round
	// Value is the recovered panic value.
	Value any
}

// Error formats the kernel, location, and panic value.
func (e *KernelPanicError) Error() string {
	if e.Node < 0 {
		return fmt.Sprintf("clique: kernel %q panicked in Next: %v", e.Kernel, e.Value)
	}
	return fmt.Sprintf("clique: kernel %q panicked at node %d in round %d: %v", e.Kernel, e.Node, e.Round, e.Value)
}

// WithCheckpoint configures the session to persist checkpoints of
// Checkpointable kernels under dir: every pass boundary writes
// (atomically) dir/<kernel-name>.ckpt. Kernels that do not implement
// Checkpointable run unchanged.
func WithCheckpoint(dir string) Option {
	return func(s *settings) { s.ckptDir = dir }
}

// WithDigests enables deterministic-replay verification for the
// session: the engine folds every round's delivered traffic into a
// chained FNV-1a digest (see engine.Options.RecordDigests) and the
// session accumulates the chain across passes, exposed via Digests and
// carried through checkpoints. Two runs of the same kernel are
// bit-identical exactly when their digest sequences match.
func WithDigests() Option {
	return func(s *settings) { s.eng.RecordDigests = true }
}

// CheckpointPath returns the file a session configured with
// WithCheckpoint(dir) writes for a kernel of the given name.
func CheckpointPath(dir, kernelName string) string {
	return filepath.Join(dir, kernelName+".ckpt")
}

// Digests returns a copy of the per-round replay digest chain of the
// current (or most recent) kernel run, across all of its passes; empty
// unless the session was built WithDigests. A resumed run's chain
// includes the restored prefix, so it is directly comparable with an
// uninterrupted run's.
func (s *Session) Digests() []uint64 { return append([]uint64(nil), s.digests...) }

// RequestStop asks the session to stop the in-flight kernel run at the
// next pass boundary: the current engine pass completes, a final
// checkpoint is written when checkpointing is configured, and
// Run/Resume return ErrStopped. Safe to call from another goroutine
// (e.g. a signal handler); a no-op when nothing is running.
func (s *Session) RequestStop() { s.stop.Store(true) }

// checkpointWriteHook, when non-nil, wraps the checkpoint file writer —
// the fault-injection seam internal/faults uses to exercise short
// writes and disk-full errors. Production never sets it.
var checkpointWriteHook func(io.Writer) io.Writer

// SetCheckpointWriteHook installs (or, with nil, removes) the
// checkpoint writer wrapper. Test-only: not safe to call concurrently
// with running sessions.
func SetCheckpointWriteHook(h func(io.Writer) io.Writer) { checkpointWriteHook = h }

// ckptMagic and ckptVersion stamp the session checkpoint file format.
// Version 1 also carried an engine round-barrier snapshot that no
// resume ever read; version 2 also carried the link budget, which is
// now fixed at one word; version 3 holds only what Resume applies.
const (
	ckptMagic   uint64 = 0x43434b50_30303146 // "CCKP001F"
	ckptVersion uint64 = 3
)

// writeCheckpoint atomically persists the session + kernel state for
// ck: encode to a temp file, fsync, rename over the final path. On any
// failure the temp file is removed and a previously written checkpoint
// stays intact.
func (s *Session) writeCheckpoint(ck Checkpointable) error {
	path := CheckpointPath(s.ckptDir, ck.Name())
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("clique: creating checkpoint: %w", err)
	}
	var w io.Writer = f
	if h := checkpointWriteHook; h != nil {
		w = h(f)
	}
	err = s.encodeCheckpoint(w, ck)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("clique: writing checkpoint %s: %w", path, err)
	}
	return nil
}

// encodeCheckpoint writes the versioned checkpoint stream: header
// (shape, kernel identity, pass cursor), session digests and stats,
// the kernel's state blob, and the integrity trailer. A pass boundary
// has no engine state worth keeping — the next pass starts at round 0.
func (s *Session) encodeCheckpoint(w io.Writer, ck Checkpointable) error {
	var kernBuf bytes.Buffer
	if err := ck.SnapshotState(&kernBuf); err != nil {
		return fmt.Errorf("kernel %q snapshot: %w", ck.Name(), err)
	}

	cw := ckptio.NewWriter(w)
	cw.U64(ckptMagic)
	cw.U64(ckptVersion)
	cw.I64(int64(s.N()))
	cw.String(ck.Name())
	cw.I64(int64(s.kernelPasses))
	cw.U64s(s.digests)
	cw.I64(int64(s.stats.Runs))
	cw.I64(int64(s.stats.Kernels))
	cw.I64(int64(s.stats.Engine.Rounds))
	cw.U64(s.stats.Engine.TotalMsgs)
	cw.U64(s.stats.Engine.TotalBytes)
	cw.I64(int64(s.stats.Engine.Wall))
	cw.Blob(kernBuf.Bytes())
	cw.SumTrailer()
	return cw.Err()
}

// decodedCheckpoint is a fully read and integrity-verified checkpoint,
// not yet applied to any session or kernel.
type decodedCheckpoint struct {
	n            int
	kernelName   string
	kernelPasses int
	digests      []uint64
	stats        Stats
	kernelState  []byte
}

// decodeCheckpoint reads and verifies a checkpoint stream completely —
// trailer included — before returning it, so a torn file can never
// half-apply.
func decodeCheckpoint(r io.Reader) (*decodedCheckpoint, error) {
	cr := ckptio.NewReader(r)
	if magic := cr.U64(); cr.Err() == nil && magic != ckptMagic {
		return nil, fmt.Errorf("clique: not a session checkpoint (magic %#x)", magic)
	}
	if v := cr.U64(); cr.Err() == nil && v != ckptVersion {
		return nil, fmt.Errorf("clique: checkpoint format version %d, this build reads version %d", v, ckptVersion)
	}
	d := &decodedCheckpoint{}
	d.n = int(cr.I64())
	d.kernelName = cr.String()
	d.kernelPasses = int(cr.I64())
	d.digests = cr.U64s()
	d.stats.Runs = int(cr.I64())
	d.stats.Kernels = int(cr.I64())
	d.stats.Engine.Rounds = int(cr.I64())
	d.stats.Engine.TotalMsgs = cr.U64()
	d.stats.Engine.TotalBytes = cr.U64()
	d.stats.Engine.Wall = time.Duration(cr.I64())
	d.kernelState = cr.Blob()
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("clique: reading checkpoint: %w", err)
	}
	return d, nil
}

// Resume continues a checkpointed kernel run: it loads the checkpoint
// at path, validates that it matches this session's clique size and
// the given kernel's name, restores the
// kernel's inter-pass state into k (which must be fresh —
// ErrKernelStarted otherwise), rewinds the session's cumulative Stats
// and replay digests to the checkpoint, and runs the remaining passes
// to completion exactly as Run would. The checkpoint file is read
// completely and integrity-verified before any state is touched.
func (s *Session) Resume(ctx context.Context, k Checkpointable, path string) error {
	if s.closed {
		return ErrClosed
	}
	if k == nil {
		return errors.New("clique: Resume with a nil Kernel")
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("clique: opening checkpoint: %w", err)
	}
	d, err := decodeCheckpoint(f)
	f.Close()
	if err != nil {
		return err
	}
	if d.n != s.N() {
		return fmt.Errorf("clique: checkpoint is for a clique sized %d, session is sized %d", d.n, s.N())
	}
	if d.kernelName != k.Name() {
		return fmt.Errorf("clique: checkpoint is for kernel %q, not %q", d.kernelName, k.Name())
	}
	if err := k.RestoreState(bytes.NewReader(d.kernelState)); err != nil {
		return fmt.Errorf("clique: restoring kernel %q: %w", k.Name(), err)
	}
	s.stats = d.stats
	s.digests = append(s.digests[:0], d.digests...)
	s.kernelPasses = d.kernelPasses
	s.stop.Store(false)
	return s.runLoop(ctx, k)
}
