// The socket transport's wire unit is a frame: an 8-byte little-endian
// length prefix followed by a self-contained ckptio stream — magic,
// kind, sender rank, sequence number, a kind-specific body, and the
// ckptio integrity trailer (FNV-1a over every body byte). Reusing the
// checkpoint encoding means the transport inherits its torn-input
// discipline for free: a truncated, bit-flipped, or replayed frame
// surfaces as a decode error or a digest mismatch, never as silently
// corrupt round traffic. FuzzFrame fuzzes decodeFrame directly.
package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
)

const (
	// frameMagic guards against cross-protocol connections; "CCFRAME1"
	// little-endian.
	frameMagic uint64 = 0x31454d4152464343

	// frameVersion is bumped on any wire-incompatible change and
	// checked in the hello handshake.
	frameVersion uint64 = 2

	// maxFrameLen bounds the length prefix a receiver accepts. A round
	// frame carries 24 bytes per message, at most one message per link;
	// 1 GiB is far beyond any round the kernels here send.
	maxFrameLen = 1 << 30

	// minFrameLen is magic + kind + rank + seq + trailer.
	minFrameLen = 5 * 8

	// frameReadChunk bounds the incremental allocation while reading a
	// frame payload, so a corrupt length prefix costs O(bytes present).
	frameReadChunk = 1 << 20
)

// Frame kinds.
const (
	frameHello uint64 = iota + 1
	frameRound
	frameGather
	frameAbort
)

// Exported frame-kind values for the TransportHooks fault-injection
// seam: hook callbacks receive the kind as a plain uint64, and fault
// plans (internal/faults) need to aim at a specific traffic class.
const (
	FrameKindHello  = frameHello
	FrameKindRound  = frameRound
	FrameKindGather = frameGather
	FrameKindAbort  = frameAbort
)

// frameHeader identifies one decoded frame.
type frameHeader struct {
	kind uint64
	rank uint64
	seq  uint64
}

// wireMsg is one round message in wire order.
type wireMsg struct {
	dst, src core.NodeID
	payload  uint64
}

// helloBody is the handshake payload both ends of a peer connection
// exchange before any round traffic: every field must agree with the
// receiver's own view of the clique or the mesh refuses to form.
type helloBody struct {
	version uint64
	n       uint64
	ranks   uint64
	rank    uint64
	lo, hi  uint64
}

// encodeFrame serializes one frame: length prefix, header words, the
// kind-specific body written by body (may be nil), and the integrity
// trailer.
func encodeFrame(kind, rank, seq uint64, body func(*ckptio.Writer)) []byte {
	var buf bytes.Buffer
	buf.Write(make([]byte, 8)) // length prefix, patched below
	cw := ckptio.NewWriter(&buf)
	cw.U64(frameMagic)
	cw.U64(kind)
	cw.U64(rank)
	cw.U64(seq)
	if body != nil {
		body(cw)
	}
	cw.SumTrailer()
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[:8], uint64(len(b)-8))
	return b
}

// encodeHello frames the handshake payload.
func encodeHello(h helloBody) []byte {
	return encodeFrame(frameHello, h.rank, 0, func(cw *ckptio.Writer) {
		cw.U64(h.version)
		cw.U64(h.n)
		cw.U64(h.ranks)
		cw.U64(h.rank)
		cw.U64(h.lo)
		cw.U64(h.hi)
	})
}

// encodeRound frames one rank's complete round-r message stream in
// deterministic order: a count word then (dst, src, payload) triples.
func encodeRound(rank uint64, round core.Round, msgs []wireMsg) []byte {
	return encodeFrame(frameRound, rank, uint64(round), func(cw *ckptio.Writer) {
		cw.U64(uint64(len(msgs)))
		for _, m := range msgs {
			cw.I64(int64(m.dst))
			cw.I64(int64(m.src))
			cw.U64(m.payload)
		}
	})
}

// encodeGather frames one rank's rows [lo, hi) of a row-major
// all-gather slab.
func encodeGather(rank, seq uint64, rowLen, lo, hi int, rows []int64) []byte {
	return encodeFrame(frameGather, rank, seq, func(cw *ckptio.Writer) {
		cw.U64(uint64(rowLen))
		cw.U64(uint64(lo))
		cw.U64(uint64(hi))
		cw.I64s(rows)
	})
}

// encodeAbort frames a best-effort abort notification carrying the
// failing rank's error text.
func encodeAbort(rank uint64, reason error) []byte {
	msg := "unknown"
	if reason != nil {
		msg = reason.Error()
	}
	return encodeFrame(frameAbort, rank, 0, func(cw *ckptio.Writer) {
		cw.String(msg)
	})
}

// readFrame reads one length-prefixed frame payload off r, growing the
// buffer incrementally so a corrupt prefix cannot force a huge
// allocation, and returns the parsed header plus a ckptio reader
// positioned at the body. The caller decodes the body for the expected
// kind and finishes with finishFrame.
func readFrame(r io.Reader) (frameHeader, *ckptio.Reader, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frameHeader{}, nil, fmt.Errorf("engine: reading frame length: %w", err)
	}
	ln := binary.LittleEndian.Uint64(pre[:])
	if ln < minFrameLen || ln > maxFrameLen {
		return frameHeader{}, nil, fmt.Errorf("engine: implausible frame length %d", ln)
	}
	payload := make([]byte, 0, min(int(ln), frameReadChunk))
	for len(payload) < int(ln) {
		c := min(int(ln)-len(payload), frameReadChunk)
		start := len(payload)
		payload = append(payload, make([]byte, c)...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return frameHeader{}, nil, fmt.Errorf("engine: truncated frame: %w", err)
		}
	}
	cr := ckptio.NewReader(bytes.NewReader(payload))
	if magic := cr.U64(); cr.Err() == nil && magic != frameMagic {
		return frameHeader{}, nil, fmt.Errorf("engine: bad frame magic %#x", magic)
	}
	h := frameHeader{kind: cr.U64(), rank: cr.U64(), seq: cr.U64()}
	if err := cr.Err(); err != nil {
		return frameHeader{}, nil, err
	}
	if h.kind < frameHello || h.kind > frameAbort {
		return frameHeader{}, nil, fmt.Errorf("engine: unknown frame kind %d", h.kind)
	}
	return h, cr, nil
}

// finishFrame verifies the frame's integrity trailer after the body has
// been decoded.
func finishFrame(cr *ckptio.Reader) error {
	cr.VerifySumTrailer()
	return cr.Err()
}

// decodeHelloBody decodes the handshake payload (trailer verified).
func decodeHelloBody(cr *ckptio.Reader) (helloBody, error) {
	h := helloBody{
		version: cr.U64(),
		n:       cr.U64(),
		ranks:   cr.U64(),
		rank:    cr.U64(),
		lo:      cr.U64(),
		hi:      cr.U64(),
	}
	if err := finishFrame(cr); err != nil {
		return helloBody{}, err
	}
	return h, nil
}

// decodeRoundBody decodes a round frame's message stream (trailer
// verified) into buf, which is reused when it has capacity. n bounds
// destination and source validation; srcLo/srcHi is the sender's
// declared node range, so a frame cannot impersonate another rank's
// nodes.
func decodeRoundBody(cr *ckptio.Reader, buf []wireMsg, n, srcLo, srcHi int) ([]wireMsg, error) {
	count := cr.U64()
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if count > maxFrameLen/24 {
		return nil, fmt.Errorf("engine: implausible round frame message count %d", count)
	}
	msgs := buf[:0]
	for i := uint64(0); i < count; i++ {
		m := wireMsg{
			dst:     core.NodeID(cr.I64()),
			src:     core.NodeID(cr.I64()),
			payload: cr.U64(),
		}
		if err := cr.Err(); err != nil {
			return nil, err
		}
		if m.dst < 0 || int(m.dst) >= n {
			return nil, fmt.Errorf("engine: round frame message %d has destination %d outside [0, %d)", i, m.dst, n)
		}
		if int(m.src) < srcLo || int(m.src) >= srcHi {
			return nil, fmt.Errorf("engine: round frame message %d has source %d outside sender's range [%d, %d)", i, m.src, srcLo, srcHi)
		}
		msgs = append(msgs, m)
	}
	if err := finishFrame(cr); err != nil {
		return nil, err
	}
	return msgs, nil
}

// decodeGatherBody decodes a gather frame (trailer verified) and
// validates its shape against the expected sender range and row width.
func decodeGatherBody(cr *ckptio.Reader, wantRowLen, wantLo, wantHi int) ([]int64, error) {
	rowLen := cr.U64()
	lo := cr.U64()
	hi := cr.U64()
	rows := cr.I64s()
	if err := finishFrame(cr); err != nil {
		return nil, err
	}
	if int(rowLen) != wantRowLen || int(lo) != wantLo || int(hi) != wantHi {
		return nil, fmt.Errorf("engine: gather frame shape (rowLen=%d rows [%d,%d)) does not match expected (rowLen=%d rows [%d,%d))",
			rowLen, lo, hi, wantRowLen, wantLo, wantHi)
	}
	if len(rows) != (wantHi-wantLo)*wantRowLen {
		return nil, fmt.Errorf("engine: gather frame carries %d words for %d rows of %d", len(rows), wantHi-wantLo, wantRowLen)
	}
	return rows, nil
}

// decodeAbortBody decodes an abort frame's reason (trailer verified).
func decodeAbortBody(cr *ckptio.Reader) (string, error) {
	msg := cr.String()
	if err := finishFrame(cr); err != nil {
		return "", err
	}
	return msg, nil
}
