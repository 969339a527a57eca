package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSigBitsFor pins the eps → significant-bits mapping and its
// guarantee direction.
func TestSigBitsFor(t *testing.T) {
	cases := []struct {
		eps  float64
		want int
	}{
		{0, 0}, {-1, 0}, {math.NaN(), 0},
		{2, 1}, {1, 1}, {0.5, 2}, {0.25, 3}, {0.1, 5}, {0.01, 8},
	}
	for _, c := range cases {
		if got := SigBitsFor(c.eps); got != c.want {
			t.Errorf("SigBitsFor(%v) = %d, want %d", c.eps, got, c.want)
		}
	}
}

// TestSigBitsForTinyEps: an eps so small that 1/eps overflows (or close
// to it) asks for near-exact rounding, so it must map to at least 63
// significant bits — enough that RoundUpSig leaves every weight as is —
// never to the 1-bit coarsest grid an overflowed log would clamp to.
func TestSigBitsForTinyEps(t *testing.T) {
	for _, eps := range []float64{5e-324, 1e-310, 5e-309, 0x1p-63, 1e-300} {
		t.Run(fmt.Sprint(eps), func(t *testing.T) {
			s := SigBitsFor(eps)
			if s < 63 {
				t.Fatalf("SigBitsFor(%v) = %d, want >= 63", eps, s)
			}
			for _, w := range []int64{1, 3, 1 << 40, InfWeight - 1} {
				if got := RoundUpSig(w, s); got != w {
					t.Errorf("RoundUpSig(%d, SigBitsFor(%v) = %d) = %d, want it unchanged", w, eps, s, got)
				}
			}
		})
	}
}

// TestRoundUpSigProperties: for random weights and epsilons, rounding
// never decreases a weight, inflates it by at most (1+eps), yields a
// value with at most sigBits significant bits, and is idempotent.
func TestRoundUpSigProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, eps := range []float64{1, 0.5, 0.1, 0.01} {
		s := SigBitsFor(eps)
		for i := 0; i < 2000; i++ {
			w := int64(1 + rng.Intn(1<<30))
			r := RoundUpSig(w, s)
			if r < w {
				t.Fatalf("eps=%v: RoundUpSig(%d) = %d decreased", eps, w, r)
			}
			if float64(r) > (1+eps)*float64(w) {
				t.Fatalf("eps=%v: RoundUpSig(%d) = %d exceeds (1+eps) bound", eps, w, r)
			}
			if r2 := RoundUpSig(r, s); r2 != r {
				t.Fatalf("eps=%v: not idempotent: %d -> %d -> %d", eps, w, r, r2)
			}
			// At most s significant bits: the trailing zeros plus s must
			// cover the bit length.
			if v := uint64(r); v>>uint(trailingZeros(v))>>uint(s) != 0 {
				t.Fatalf("eps=%v: RoundUpSig(%d) = %d uses more than %d significant bits", eps, w, r, s)
			}
		}
	}
}

// trailingZeros is a tiny local helper to keep the test dependency-free.
func trailingZeros(v uint64) int {
	n := 0
	for v&1 == 0 && v != 0 {
		v >>= 1
		n++
	}
	return n
}

// TestRoundUpSigEdges: sentinels and degenerate inputs pass through
// unchanged, and finite weights can never round into InfWeight.
func TestRoundUpSigEdges(t *testing.T) {
	if got := RoundUpSig(0, 2); got != 0 {
		t.Errorf("RoundUpSig(0) = %d", got)
	}
	if got := RoundUpSig(-5, 2); got != -5 {
		t.Errorf("RoundUpSig(-5) = %d", got)
	}
	if got := RoundUpSig(InfWeight, 2); got != InfWeight {
		t.Errorf("RoundUpSig(Inf) = %d", got)
	}
	if got := RoundUpSig(12345, 0); got != 12345 {
		t.Errorf("sigBits=0 must be exact, got %d", got)
	}
	if got := RoundUpSig(InfWeight-1, 1); got >= InfWeight {
		t.Errorf("RoundUpSig(Inf-1) = %d rounded into the sentinel", got)
	}
	if got := RoundUpSig(3, 2); got != 3 {
		t.Errorf("RoundUpSig(3, 2) = %d, want 3 (already fits)", got)
	}
	if got := RoundUpSig(5, 2); got != 6 {
		t.Errorf("RoundUpSig(5, 2) = %d, want 6", got)
	}
}
