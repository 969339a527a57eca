package main

import (
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is
// not modified. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fast is the benchmark's estimate of an operation's undisturbed time:
// the 10th percentile of its repetitions. The hosts this runs on add
// noise that only ever slows an operation down, in phases several
// seconds long during which everything runs up to 1.5x slower; a median
// moves with how much of the window those phases cover, the fast
// end of the sample does not (README "Sizing" has the measurements).
func fast(xs []float64) float64 { return quantile(xs, 0.10) }

// mean returns the arithmetic mean of xs, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and secs convert durations to the float units the metrics use.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// durationsMs converts a duration sample to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio returns a/b, 0 when b is 0, so a degenerate toy-size run never
// puts NaN or Inf into the JSON result.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deriveSeed maps the benchmark seed and a label to an independent
// stream seed, so every graph and every query-source sequence is a pure
// function of -seed and no two of them share a stream.
func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64() >> 1)
}

// timeN runs f reps times and returns each call's wall time.
func timeN(reps int, f func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return out, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
