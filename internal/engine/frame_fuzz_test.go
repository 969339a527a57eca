package engine

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/core"
)

// FuzzFrame feeds arbitrary bytes to the socket transport's frame
// decoder pipeline — readFrame plus every kind-specific body decoder —
// and requires corrupt, truncated, or adversarial input to surface as
// an error, never a panic, and never an allocation proportional to a
// corrupt length claim (readFrame grows its payload buffer only as
// bytes actually arrive). Valid frames in the seed corpus must still
// decode, so the fuzzer also guards the codec round trip.
func FuzzFrame(f *testing.F) {
	f.Add(encodeHello(helloBody{version: frameVersion, n: 64, ranks: 2, rank: 1, lo: 32, hi: 64}))
	f.Add(encodeRound(0, 3, []wireMsg{{dst: 1, src: 0, payload: 42}, {dst: 2, src: 0, payload: 7}}))
	f.Add(encodeGather(1, 2, 2, 2, 4, []int64{1, -1, 2, -2}))
	f.Add(encodeAbort(1, errors.New("handler failed")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // absurd length prefix
	f.Add(make([]byte, 16))                                       // short zero frame

	f.Fuzz(func(t *testing.T, data []byte) {
		h, cr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		switch h.kind {
		case frameHello:
			_, _ = decodeHelloBody(cr)
		case frameRound:
			_, _ = decodeRoundBody(cr, nil, 64, 0, 64)
		case frameGather:
			_, _ = decodeGatherBody(cr, 2, 2, 4)
		case frameAbort:
			_, _ = decodeAbortBody(cr)
		}
	})
}

// TestFrameRoundTrip pins the codec on well-formed frames: every kind
// encodes and decodes to identical values with a verified trailer.
func TestFrameRoundTrip(t *testing.T) {
	hello := helloBody{version: frameVersion, n: 17, ranks: 3, rank: 2, lo: 12, hi: 17}
	h, cr, err := readFrame(bytes.NewReader(encodeHello(hello)[8:]))
	_ = h
	if err == nil {
		t.Fatalf("readFrame on prefix-stripped bytes must fail (it consumed body bytes as a length)")
	}
	h, cr, err = readFrame(bytes.NewReader(encodeHello(hello)))
	if err != nil || h.kind != frameHello || h.rank != 2 {
		t.Fatalf("hello header = %+v, err %v", h, err)
	}
	if got, err := decodeHelloBody(cr); err != nil || got != hello {
		t.Fatalf("hello body = %+v, err %v, want %+v", got, err, hello)
	}

	msgs := []wireMsg{{dst: 3, src: 1, payload: 99}, {dst: 0, src: 2, payload: 1}}
	h, cr, err = readFrame(bytes.NewReader(encodeRound(0, core.Round(7), msgs)))
	if err != nil || h.kind != frameRound || h.seq != 7 {
		t.Fatalf("round header = %+v, err %v", h, err)
	}
	got, err := decodeRoundBody(cr, nil, 4, 0, 4)
	if err != nil || len(got) != 2 || got[0] != msgs[0] || got[1] != msgs[1] {
		t.Fatalf("round body = %v, err %v, want %v", got, err, msgs)
	}

	rows := []int64{5, 6, 7, 8}
	h, cr, err = readFrame(bytes.NewReader(encodeGather(1, 4, 2, 1, 3, rows)))
	if err != nil || h.kind != frameGather || h.seq != 4 {
		t.Fatalf("gather header = %+v, err %v", h, err)
	}
	if gr, err := decodeGatherBody(cr, 2, 1, 3); err != nil || len(gr) != 4 || gr[0] != 5 || gr[3] != 8 {
		t.Fatalf("gather body = %v, err %v, want %v", gr, err, rows)
	}

	h, cr, err = readFrame(bytes.NewReader(encodeAbort(2, errors.New("boom"))))
	if err != nil || h.kind != frameAbort {
		t.Fatalf("abort header = %+v, err %v", h, err)
	}
	if msg, err := decodeAbortBody(cr); err != nil || msg != "boom" {
		t.Fatalf("abort body = %q, err %v, want \"boom\"", msg, err)
	}
}

// TestFrameRejectsCorruption pins the loud-failure paths a fuzzer can
// only probabilistically reach: bit flips must trip the integrity
// trailer, truncation must read as an error, impersonated sources and
// out-of-range destinations must be rejected.
func TestFrameRejectsCorruption(t *testing.T) {
	valid := encodeRound(0, 1, []wireMsg{{dst: 1, src: 0, payload: 42}})

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-9] ^= 0x01 // inside the body, before the trailer
	if _, cr, err := readFrame(bytes.NewReader(flipped)); err == nil {
		if _, err := decodeRoundBody(cr, nil, 4, 0, 4); err == nil {
			t.Error("bit-flipped round frame decoded cleanly")
		}
	}

	if _, _, err := readFrame(bytes.NewReader(valid[:len(valid)-3])); err == nil {
		t.Error("truncated frame read cleanly")
	}

	if _, _, err := readFrame(io.LimitReader(bytes.NewReader(valid), 8)); err == nil {
		t.Error("length-prefix-only frame read cleanly")
	}

	// src 0 impersonated from a rank owning [2, 4).
	if _, cr, err := readFrame(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid frame: %v", err)
	} else if _, err := decodeRoundBody(cr, nil, 4, 2, 4); err == nil {
		t.Error("round frame with an out-of-range source decoded cleanly")
	}

	// dst 1 with n=1 is out of range.
	if _, cr, err := readFrame(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid frame: %v", err)
	} else if _, err := decodeRoundBody(cr, nil, 1, 0, 1); err == nil {
		t.Error("round frame with an out-of-range destination decoded cleanly")
	}
}
