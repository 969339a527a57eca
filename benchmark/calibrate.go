package main

import "time"

// The hosts this benchmark runs on are small shared VMs. Neighbours slow
// memory-bound code down by up to 1.5x in phases several seconds long,
// and the level drifts by 20% over tens of minutes; process CPU time
// moves with wall time, so it is not steal. Measured on this host, the
// 10th-percentile run time of flood-1024 and of one dense matmul pass
// spread 22-25% (quartile distance over median) across ten back-to-back
// 12 s windows and drifted up to 22% between adjacent sets of ten, which
// no bound the driver accepts can absorb.
//
// So the gated end-to-end times are calibrated: a fixed loop of this
// file, which writes a slab of messages and scatters it into
// per-destination boxes the way the router does, is timed next to the
// operations, and an operation's latency is divided by how much slower
// than calNominal the loop ran around it. On the same samples that
// brought the spread to 4-9% and the drift to under 10%. The loop is the
// benchmark's own code and calls nothing of the program under test, so
// no change to the program can move it. Raw times are reported beside
// the calibrated ones (result.Info) and are what the per-layer metrics
// use.

// calNominal is what one calibration loop takes on this host when it is
// left alone; a calibrated millisecond is a wall millisecond at that
// speed.
const calNominal = 32 * time.Millisecond

// calEvery is the least time between two calibration samples, so that
// calibrating costs short operations under a tenth of the window.
// calReach is how far from an operation a sample still speaks for it:
// the slow phases last several seconds, and averaging the few samples
// inside the reach takes out the loop's own run-to-run noise.
const (
	calEvery = 800 * time.Millisecond
	calReach = 1500 * time.Millisecond
)

type calMsg struct {
	src     int32
	payload uint64
}

type calSample struct {
	at time.Time // middle of the loop
	d  time.Duration
}

// calibrator owns the loop's buffers and the samples of one run. Only
// one goroutine may call sample; scale is for after it has stopped.
type calibrator struct {
	slab    []calMsg
	dst     []int32
	boxes   [][]calMsg
	samples []calSample
	last    time.Time
}

// newCalibrator sizes the loop: words messages (16 MiB of slab at the
// real size, well past any cache level) scattered over 1024 boxes. One
// discarded pass faults the buffers in and grows the boxes.
func newCalibrator(words int) *calibrator {
	c := &calibrator{slab: make([]calMsg, words), dst: make([]int32, words), boxes: make([][]calMsg, 1024)}
	c.sample()
	c.samples = c.samples[:0]
	return c
}

// pass runs the loop once and returns how long it took.
func (c *calibrator) pass() time.Duration {
	t0 := time.Now()
	for rep := 0; rep < 2; rep++ {
		for i := range c.slab {
			c.slab[i] = calMsg{int32(i & 1023), uint64(i)}
			c.dst[i] = int32((i*7 + i>>10) & 1023)
		}
		for d := range c.boxes {
			c.boxes[d] = c.boxes[d][:0]
		}
		for i, m := range c.slab {
			c.boxes[c.dst[i]] = append(c.boxes[c.dst[i]], m)
		}
	}
	return time.Since(t0)
}

// sample records the faster of two passes. One pass now and then takes
// three times as long as its neighbours (a collection, a preemption);
// taken alone it would make the operations next to it look that much
// faster, and p10 would pick exactly those.
func (c *calibrator) sample() {
	t0 := time.Now()
	d := min(c.pass(), c.pass())
	c.last = time.Now()
	c.samples = append(c.samples, calSample{at: t0.Add(c.last.Sub(t0) / 2), d: d})
}

// sampleIfDue samples unless the last sample is younger than calEvery.
func (c *calibrator) sampleIfDue() {
	if time.Since(c.last) >= calEvery {
		c.sample()
	}
}

// scale returns the factor that turns a wall time measured around
// instant at into calibrated time: calNominal over the mean loop time
// of the samples within calReach of at, or of the nearest sample on
// each side when none is that close.
func (c *calibrator) scale(at time.Time) float64 {
	var before, after *calSample
	var sum time.Duration
	n := 0
	for i := range c.samples {
		s := &c.samples[i]
		if !s.at.After(at) {
			before = s
		} else if after == nil {
			after = s
		}
		if gap := s.at.Sub(at); gap.Abs() <= calReach {
			sum, n = sum+s.d, n+1
		}
	}
	if n == 0 {
		for _, s := range []*calSample{before, after} {
			if s != nil {
				sum, n = sum+s.d, n+1
			}
		}
	}
	if n == 0 {
		return 1
	}
	return float64(calNominal) / (float64(sum) / float64(n))
}

// medianMs is the run's median loop time, reported so a result shows
// what state the host was in.
func (c *calibrator) medianMs() float64 {
	ds := make([]time.Duration, len(c.samples))
	for i, s := range c.samples {
		ds[i] = s.d
	}
	return median(durationsMs(ds))
}
