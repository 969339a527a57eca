package ckptio

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the full Reader surface over arbitrary bytes. The
// contract under fuzzing: corrupt or truncated input must surface as a
// sticky Err (or a trailer mismatch), never as a panic, and the
// length-prefixed decoders must never allocate proportionally to a
// corrupt length claim — only to bytes actually present (the chunked
// allocation discipline). The session checkpoint, kernel state blob,
// and socket frame formats are all compositions of exactly these
// primitives, so this fuzzer is the torn-input backstop for all of
// them.
func FuzzDecode(f *testing.F) {
	// A well-formed stream touching every primitive, trailer included.
	var good bytes.Buffer
	w := NewWriter(&good)
	w.U64(0xdeadbeef)
	w.I64(-42)
	w.Bool(true)
	w.F64(3.25)
	w.String("hopset")
	w.Blob([]byte{1, 2, 3})
	w.U64s([]uint64{1, 2, 3, 4})
	w.I64s([]int64{-1, 0, 1})
	w.I32s([]int32{7, -7})
	w.SumTrailer()
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// A huge-length claim with no bytes behind it: the chunked
	// allocators must fail on the missing data, not allocate 2^60 words.
	var huge bytes.Buffer
	hw := NewWriter(&huge)
	hw.U64(0xdeadbeef)
	hw.I64(-42)
	hw.Bool(true)
	hw.F64(3.25)
	f.Add(append(huge.Bytes(), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		_ = r.U64()
		_ = r.I64()
		_ = r.Bool()
		_ = r.F64()
		_ = r.String()
		_ = r.Blob()
		_ = r.U64s()
		_ = r.I64s()
		_ = r.I32s()
		_ = r.NodeIDs()
		r.VerifySumTrailer()
		_ = r.Err()
	})
}

// FuzzRoundTrip checks the complementary direction: any values that go
// through the Writer come back bit-identically through the Reader, and
// the integrity trailer verifies.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), "", []byte(nil), true)
	f.Add(uint64(1)<<63, int64(-1), "clique", []byte{0xff, 0}, false)
	f.Fuzz(func(t *testing.T, u uint64, i int64, s string, blob []byte, b bool) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.U64(u)
		w.I64(i)
		w.String(s)
		w.Blob(blob)
		w.Bool(b)
		w.SumTrailer()
		if err := w.Err(); err != nil {
			t.Fatalf("write: %v", err)
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		gu, gi, gs, gblob, gb := r.U64(), r.I64(), r.String(), r.Blob(), r.Bool()
		r.VerifySumTrailer()
		if err := r.Err(); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if gu != u || gi != i || gs != s || gb != b || !bytes.Equal(gblob, blob) {
			t.Fatalf("round trip mismatch: got (%d %d %q %v %v), want (%d %d %q %v %v)",
				gu, gi, gs, gblob, gb, u, i, s, blob, b)
		}
	})
}
