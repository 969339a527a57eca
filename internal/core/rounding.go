package core

import (
	"math"
	"math/bits"
)

// This file holds the weight rounding/scaling helpers behind the
// (1+ε) approximation guarantee of the Dory-Parter pipeline. The
// paper compresses distance values so they fit in o(log n)-bit message
// fields; the concrete mechanism is rounding weights up to a fixed
// number of significant bits — a floating-point-style grid. Rounding
// *up* preserves the lower bound (no path ever gets cheaper), and
// keeping s significant bits bounds the inflation of any single weight
// by a factor 1 + 2^(1-s); since path weights are sums of edge
// weights, every path — and therefore every shortest-path distance —
// inflates by at most that same factor.

// SigBitsFor returns the number of significant bits s such that
// rounding every weight up to s significant bits (RoundUpSig) inflates
// each weight, and hence each path weight, by at most a (1+eps)
// factor: s = 1 + ceil(log2(1/eps)), clamped to at least 1. eps = 0.5
// gives 2 bits, eps = 0.1 gives 5. eps <= 0 returns 0, the "no
// rounding, exact" sentinel accepted by RoundUpSig. eps below 2^-62
// returns 64, at which RoundUpSig leaves every int64 weight unchanged;
// the check comes before 1/eps, which overflows to +Inf for the
// smallest positive eps.
func SigBitsFor(eps float64) int {
	if eps <= 0 || math.IsNaN(eps) {
		return 0
	}
	if eps < 0x1p-62 {
		return 64
	}
	s := 1 + int(math.Ceil(math.Log2(1/eps)))
	if s < 1 {
		s = 1
	}
	return s
}

// RoundUpSig rounds w up to the nearest value with at most sigBits
// significant bits: for w of bit length L > sigBits, the low
// L - sigBits bits are rounded away upward, so w <= result <=
// (1 + 2^(1-sigBits)) * w. Weights already fitting sigBits bits, non-
// positive weights, and the InfWeight sentinel are returned unchanged;
// sigBits <= 0 means "no rounding" and also returns w unchanged. The
// result is capped below InfWeight so a finite weight can never round
// into the "no path" sentinel.
func RoundUpSig(w int64, sigBits int) int64 {
	if sigBits <= 0 || w <= 0 {
		return w
	}
	if w >= InfWeight {
		return InfWeight
	}
	l := bits.Len64(uint64(w))
	if l <= sigBits {
		return w
	}
	shift := uint(l - sigBits)
	r := (w + (1 << shift) - 1) >> shift << shift
	if r >= InfWeight {
		// A weight this close to the sentinel cannot be represented on
		// the rounded grid without colliding with "no path"; keep it
		// finite. (Real inputs are orders of magnitude below InfWeight.)
		r = InfWeight - 1
	}
	return r
}
