// Snapshot/RestoreSnapshot: crash-safe capture of an Engine's complete
// between-rounds state. The Congested Clique's synchronous barrier is
// the one point where the global state is closed under serialization:
// every handler for round r-1 has returned, every message it sent sits
// in the double-buffered inbox bank for round r, and nothing is in
// flight. A snapshot taken there — round number, inbox bank, per-worker
// send counters, cumulative stats, and the chained per-round FNV replay
// digests — is therefore sufficient to continue the run bit-identically
// on any engine of the same shape (clique size and bandwidth budget),
// which RestoreSnapshot + RunBounded do. The serialized form is the
// versioned binary format of internal/ckptio with an integrity trailer.
package engine

import (
	"fmt"
	"io"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
)

// digestSeed is the initial value of the per-run replay digest chain.
const digestSeed = ckptio.FNVOffset

// fnv1aWord folds one 64-bit word into a running FNV-1a hash,
// little-endian byte order, without allocating.
func fnv1aWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// snapshotMagic and snapshotVersion stamp the serialized snapshot
// format; ReadSnapshot rejects mismatches with a descriptive error
// instead of decoding garbage.
const (
	snapshotMagic   uint64 = 0x43435350_30303153 // "CCSP001S"
	snapshotVersion uint64 = 1
)

// Snapshot is an Engine's complete state at a round barrier: everything
// RunBounded needs to continue the run from round Round as if it had
// never stopped. Snapshots are plain data — they stay valid after the
// engine that produced them advances or closes — and serialize with
// WriteTo / ReadSnapshot.
type Snapshot struct {
	// N is the clique size the snapshot was taken at; RestoreSnapshot
	// rejects engines of a different size.
	N int
	// Budget is the bandwidth budget in force; RestoreSnapshot rejects
	// engines with a different budget (the round-by-round schedule, and
	// with it the replay digests, depend on it).
	Budget core.Budget
	// Round is the next round to execute.
	Round core.Round
	// Sent holds the per-worker cumulative send counters; their sum
	// feeds the quiescence detector and the per-round message deltas.
	Sent []uint64
	// Stats are the cumulative run stats up to the barrier (PerRound
	// detail is not carried; Digests preserves the replay chain).
	Stats Stats
	// Inbox is the message bank awaiting delivery in round Round, in
	// the router's deterministic per-destination order.
	Inbox [][]Message
	// Digests is the chained per-round FNV-1a replay digest sequence of
	// rounds 0..Round-1 (empty unless Options.RecordDigests was set).
	Digests []uint64
}

// Snapshot captures the engine's state at the current round barrier.
// The engine API is synchronous, so any call site outside a running
// round — between Run calls, after an ErrMaxRounds or cancellation
// return, or inside Options.RoundHook (which runs exactly at the
// barrier) — is a valid barrier. The returned Snapshot deep-copies all
// state and never aliases engine internals.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if e.closed {
		return nil, ErrClosed
	}
	s := &Snapshot{
		N:       e.n,
		Budget:  e.opts.Budget,
		Round:   e.round,
		Sent:    make([]uint64, len(e.rt.ctxs)),
		Inbox:   make([][]Message, e.n),
		Digests: append([]uint64(nil), e.digests...),
		Stats:   e.curStats,
	}
	for i, c := range e.rt.ctxs {
		s.Sent[i] = c.sent
	}
	for d := 0; d < e.n; d++ {
		if box := e.rt.inbox[d]; len(box) > 0 {
			s.Inbox[d] = append([]Message(nil), box...)
		}
	}
	return s, nil
}

// RestoreSnapshot loads s into the engine and arms the next RunBounded
// to continue from s.Round (see RunBounded). The engine must have the
// same clique size and budget the snapshot was taken with; mismatches
// are rejected with a descriptive error and leave the engine untouched.
// The caller supplies the node set to the subsequent RunBounded — node
// handler state is the kernel layer's to checkpoint (see
// clique.Checkpointable); handlers whose behavior is a pure function of
// delivered messages resume exactly.
func (e *Engine) RestoreSnapshot(s *Snapshot) error {
	if e.closed {
		return ErrClosed
	}
	if s.N != e.n {
		return fmt.Errorf("engine: snapshot of a clique sized %d cannot restore into an engine sized %d", s.N, e.n)
	}
	if s.Budget != e.opts.Budget {
		return fmt.Errorf("engine: snapshot budget %+v does not match engine budget %+v", s.Budget, e.opts.Budget)
	}
	e.rt.reset()
	for d := 0; d < e.n; d++ {
		if d < len(s.Inbox) {
			e.rt.inbox[d] = append(e.rt.inbox[d][:0], s.Inbox[d]...)
		}
	}
	e.round = s.Round
	e.rt.round = s.Round
	for _, c := range e.rt.ctxs {
		c.sent = 0
	}
	if len(s.Sent) == len(e.rt.ctxs) {
		for i, c := range e.rt.ctxs {
			c.sent = s.Sent[i]
		}
	} else if len(e.rt.ctxs) > 0 {
		// Worker counts differ (e.g. restored on another machine): only
		// the sum feeds quiescence detection, so fold it into worker 0.
		var total uint64
		for _, v := range s.Sent {
			total += v
		}
		e.rt.ctxs[0].sent = total
	}
	e.digests = append(e.digests[:0], s.Digests...)
	e.lastDigest = digestSeed
	if len(e.digests) > 0 {
		e.lastDigest = e.digests[len(e.digests)-1]
	}
	e.restoredStats = s.Stats
	e.restoredStats.PerRound = nil
	e.resumed = true
	return nil
}

// Digests returns a copy of the chained per-round replay digests of the
// current (or most recent) run; empty unless Options.RecordDigests.
func (e *Engine) Digests() []uint64 { return append([]uint64(nil), e.digests...) }

// Budget returns the per-link bandwidth budget the engine enforces
// (after defaulting) — checkpoint headers record it so a resume onto a
// differently-budgeted session is rejected instead of silently
// replaying a different schedule.
func (e *Engine) Budget() core.Budget { return e.opts.Budget }

// WriteTo serializes the snapshot in the versioned binary format:
// magic, version, shape (n, budget), round, counters, stats, digests,
// inbox bank, and a trailing FNV-1a integrity digest of everything
// before it. It implements io.WriterTo.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := ckptio.NewWriter(w)
	cw.U64(snapshotMagic)
	cw.U64(snapshotVersion)
	cw.I64(int64(s.N))
	cw.I64(int64(s.Budget.BitsPerLink))
	cw.I64(int64(s.Budget.MsgBits))
	cw.I64(int64(s.Round))
	cw.U64s(s.Sent)
	cw.I64(int64(s.Stats.Rounds))
	cw.U64(s.Stats.TotalMsgs)
	cw.U64(s.Stats.TotalBytes)
	cw.I64(int64(s.Stats.Wall))
	cw.U64s(s.Digests)
	cw.U64(uint64(len(s.Inbox)))
	for _, box := range s.Inbox {
		cw.U64(uint64(len(box)))
		for _, m := range box {
			cw.I64(int64(m.Src))
			cw.U64(m.Payload)
		}
	}
	cw.SumTrailer()
	return cw.Count(), cw.Err()
}

// ReadSnapshot deserializes a snapshot written by WriteTo, verifying
// magic, version, and the integrity trailer.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	cr := ckptio.NewReader(r)
	if magic := cr.U64(); cr.Err() == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("engine: not an engine snapshot (magic %#x)", magic)
	}
	if v := cr.U64(); cr.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("engine: snapshot format version %d, this build reads version %d", v, snapshotVersion)
	}
	s := &Snapshot{}
	s.N = int(cr.I64())
	s.Budget.BitsPerLink = int(cr.I64())
	s.Budget.MsgBits = int(cr.I64())
	s.Round = core.Round(cr.I64())
	s.Sent = cr.U64s()
	s.Stats.Rounds = int(cr.I64())
	s.Stats.TotalMsgs = cr.U64()
	s.Stats.TotalBytes = cr.U64()
	s.Stats.Wall = time.Duration(cr.I64())
	s.Digests = cr.U64s()
	nBoxes := int(cr.U64())
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if nBoxes < 0 || nBoxes != s.N {
		return nil, fmt.Errorf("engine: snapshot inbox bank has %d destinations for n=%d", nBoxes, s.N)
	}
	s.Inbox = make([][]Message, nBoxes)
	for d := 0; d < nBoxes; d++ {
		cnt := int(cr.U64())
		if cr.Err() != nil {
			return nil, cr.Err()
		}
		if cnt < 0 || cnt > s.N*1<<16 {
			return nil, fmt.Errorf("engine: snapshot inbox %d claims %d messages (corrupt?)", d, cnt)
		}
		if cnt == 0 {
			continue
		}
		box := make([]Message, cnt)
		for i := range box {
			box[i].Src = core.NodeID(cr.I64())
			box[i].Payload = cr.U64()
		}
		s.Inbox[d] = box
	}
	cr.VerifySumTrailer()
	if err := cr.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
