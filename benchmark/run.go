package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/paper-repo-growth/doryp20/internal/bench"
)

// environment records where a result was measured: the host as every
// BENCH_*.json records it (cpus, gomaxprocs, go_version, ...), and the
// worker count every engine was pinned to.
type environment struct {
	bench.Host
	Workers int `json:"pinned_workers"`
}

func currentEnvironment() environment {
	return environment{Host: bench.CurrentHost(), Workers: pinnedWorkers}
}

// result is one run of one workload: end-to-end metrics when Trace is
// 0, per-layer metrics when it is 1.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info is the rest of the latency distribution of an end-to-end
	// run: printed and kept in the result file, but neither declared in
	// BENCHMARK.json nor gated, because on a noisy host these move with
	// the host and not with the code.
	Info   map[string]metric  `json:"info,omitempty"`
	SelfMs map[string]float64 `json:"self_time_ms,omitempty"` // traced runs: self time per layer
}

// distribution summarizes successful-operation latencies (ms) over a
// measuring window.
func distribution(lat []float64, elapsed time.Duration) map[string]metric {
	n := len(lat)
	return map[string]metric{
		"op_min_ms":  {quantile(lat, 0), "ms", n},
		"op_p10_ms":  {fast(lat), "ms", n},
		"op_p50_ms":  {median(lat), "ms", n},
		"op_p90_ms":  {quantile(lat, 0.9), "ms", n},
		"op_mean_ms": {mean(lat), "ms", n},
		"ops_per_s":  {float64(n) / secs(elapsed), "1/s", n},
	}
}

func newResult(w workload, cfg *config, trace int) *result {
	return &result{
		Workload: w.name, Seed: cfg.seed, Trace: trace, Seconds: cfg.window.Seconds(),
		Env: currentEnvironment(), Metrics: map[string]metric{},
	}
}

// holder closes the instance it holds at most once, so a run can close
// it on the success path, check the error, and still defer a close for
// the error paths.
type holder struct{ inst instance }

func (h *holder) close() error {
	if h.inst == nil {
		return nil
	}
	err := h.inst.close()
	h.inst = nil
	return err
}

// count books a batch of verified operations and returns the latencies
// (ms) of those that succeeded, raw and, given a calibrator, calibrated.
// The first few failures are printed.
func (r *result) count(ops []opResult, cal *calibrator) (lat, calibrated []float64) {
	for _, o := range ops {
		r.Attempted++
		if o.err != nil {
			if r.Failed++; r.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: operation failed: %v\n", r.Workload, o.err)
			}
			continue
		}
		lat = append(lat, ms(o.latency))
		if cal != nil {
			calibrated = append(calibrated, ms(o.latency)*cal.scale(o.done.Add(-o.latency/2)))
		}
	}
	return lat, calibrated
}

// measureEndToEnd is a --trace 0 run: set up cfg.setups times (setup_s
// is the fast end of those), compute the oracle outside every timer,
// then run the workload closed-loop for the window with no hook or
// tracer installed and the calibration loop sampled in between.
func measureEndToEnd(ctx context.Context, w workload, cfg *config) (*result, error) {
	res := newResult(w, cfg, 0)
	var h holder
	defer h.close() //nolint:errcheck // only still open when an earlier error is being returned
	cal := newCalibrator(cfg.calWords)
	var setupTook []time.Duration
	var setupMid []time.Time
	for i := 0; i < cfg.setups; i++ {
		if err := h.close(); err != nil {
			return nil, err
		}
		cal.sample()
		t0 := time.Now()
		next, err := w.setup(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		h.inst = next // only on success: a failed set-up returns a typed nil
		d := time.Since(t0)
		setupTook, setupMid = append(setupTook, d), append(setupMid, t0.Add(d/2))
	}
	cal.sample()
	var setupRaw, setupCal []float64
	for i, d := range setupTook {
		setupRaw, setupCal = append(setupRaw, secs(d)), append(setupCal, secs(d)*cal.scale(setupMid[i]))
	}
	h.inst.prepareOracle()
	ops, elapsed := measure(ctx, h.inst, cfg.window, nil, cal)
	if err := h.close(); err != nil {
		return nil, err
	}
	lat, calibrated := res.count(ops, cal)
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded", w.name)
	}
	res.Metrics["setup_s"] = metric{fast(setupCal), "s", len(setupCal)}
	res.Metrics["op_p10_cal_ms"] = metric{fast(calibrated), "ms", len(calibrated)}
	res.Info = distribution(lat, elapsed)
	res.Info["setup_raw_s"] = metric{fast(setupRaw), "s", len(setupRaw)}
	res.Info["calibration_ms"] = metric{cal.medianMs(), "ms", len(cal.samples)}
	res.Correct = res.Failed == 0
	return res, nil
}

// measureTraced is the workload's half of a --trace 1 run: the
// workload again, in short alternating untraced and traced slices on
// one instance, with its spans recorded into tr. The other half is the
// layer ladder (addLadder).
func measureTraced(ctx context.Context, w workload, cfg *config, tr *tracer) (*result, error) {
	res := newResult(w, cfg, 1)
	tap := &roundTap{}
	inst, err := w.setup(cfg, tap)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	h := holder{inst}
	defer h.close() //nolint:errcheck // only still open when an earlier error is being returned
	inst.prepareOracle()

	slice := min(cfg.window, 5*time.Second) / time.Duration(2*cfg.tracedOps)
	// Serving: the daemon's own totals, which include words.
	sc, scraped := inst.(scraper)
	var r0, w0 float64
	if scraped {
		if r0, w0, err = sc.counters(ctx); err != nil {
			return nil, err
		}
	}
	var plain, traced []opResult
	var elapsed time.Duration
	for j := 0; j < cfg.tracedOps; j++ {
		p, dp := measure(ctx, inst, slice, nil, nil)
		t, dt := measure(ctx, inst, slice, tr, nil)
		plain, traced, elapsed = append(plain, p...), append(traced, t...), elapsed+dp+dt
	}
	var r1, w1 float64
	if scraped {
		if r1, w1, err = sc.counters(ctx); err != nil {
			return nil, err
		}
	}
	rss := inst.peakRSSMB()
	if err := h.close(); err != nil {
		return nil, err
	}
	plainLat, _ := res.count(plain, nil)
	tracedLat, _ := res.count(traced, nil)
	if len(plainLat) == 0 || len(tracedLat) == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded", w.name)
	}

	all := append(plain, traced...)
	var rounds, words, passes, engine, latency float64
	for _, o := range all {
		rounds, words, passes = rounds+o.rounds, words+o.words, passes+o.passes
		engine, latency = engine+secs(o.engineWall), latency+secs(o.latency)
	}
	if scraped {
		rounds, words = r1-r0, w1-w0
	}
	n := float64(len(all))
	res.Metrics["workload.trace_overhead_share"] = metric{ratio(fast(tracedLat), fast(plainLat)) - 1, "ratio", len(tracedLat)}
	for name, m := range distribution(append(plainLat, tracedLat...), elapsed) {
		res.Metrics["workload."+name] = m
	}
	res.Metrics["workload.rounds_per_op"] = metric{rounds / n, "count", 0}
	res.Metrics["workload.words_per_op"] = metric{words / n, "count", 0}
	res.Metrics["workload.passes_per_op"] = metric{passes / n, "count", 0}
	res.Metrics["workload.engine_share"] = metric{ratio(engine, latency), "ratio", 0}
	res.Metrics["workload.peak_rss_mb"] = metric{rss, "MB", 0}

	res.Correct = res.Failed == 0
	return res, nil
}

// addLadder folds the ladder's metrics and verified outputs into a
// traced result, and the tracer's self time per layer.
func (r *result) addLadder(l *ladder, tr *tracer) {
	for name, m := range l.m {
		r.Metrics[name] = m
	}
	r.Attempted += l.attempted
	r.Failed += l.failed
	r.Correct = r.Failed == 0
	r.SelfMs = map[string]float64{}
	for layer, d := range tr.selfTimes() {
		r.SelfMs[layer] = ms(d)
	}
}

// errFailed reports a run whose outputs did not all verify.
var errFailed = errors.New("some operations failed or did not match the oracle")
