package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"
)

// workload is one benchmark workload.
type workload interface {
	// prepare does the untimed work the output checks need, such as a
	// simulator run of each spec to compare meters against.
	prepare(ctx context.Context) error
	// rounds is how many set-up rounds a run makes; setup_s is their
	// median.
	rounds() int
	// setup is one set-up round; the timed window runs against the state
	// the last round left.
	setup(ctx context.Context) error
	// run measures for the given seconds, ops in the order rng gives,
	// recording every op in l (and its spans in tr when tracing), and
	// returns the duration of each pass in seconds.
	run(ctx context.Context, seconds float64, rng *rand.Rand, tr *tracer, l *ledger) ([]float64, error)
	// finish runs the checks that come after the timed window.
	finish(ctx context.Context, l *ledger)
	// named returns the workload's named end-to-end metrics.
	named(l *ledger, passes []float64) []named
	close()
}

// memMarker is a workload whose memory grows with the work it has done;
// its resident set is read up to a fixed amount of work, the mark,
// rather than over the whole window, so that a faster pass does not
// read as a larger footprint. A zero mark means the whole window.
type memMarker interface {
	memMark() time.Time
}

func newWorkload(name, dir string) workload {
	switch name {
	case "sweep":
		return newSweep(dir)
	case "halo":
		return newWire("halo", haloSpecs, 2)
	case "bulk":
		return newWire("bulk", bulkSpecs, 3)
	case "serve":
		return newServe(dir)
	}
	panic("unknown workload " + name) // parseFlags validated the name
}

// passLoop runs passes until the window is spent, at least one.
func passLoop(seconds float64, pass func() float64) []float64 {
	var passes []float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < seconds {
		passes = append(passes, pass())
	}
	return passes
}

// setUp runs a workload's set-up rounds and returns their durations.
func setUp(ctx context.Context, w workload) ([]float64, error) {
	if err := w.prepare(ctx); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var times []float64
	for i := 0; i < w.rounds(); i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// measure is the --trace 0 run: set up, measure with tracing off, check,
// and report the end-to-end metrics.
func measure(ctx context.Context, cfg config, stdout io.Writer) (result, error) {
	w := newWorkload(cfg.workload, cfg.dir)
	defer w.close()
	setups, err := setUp(ctx, w)
	if err != nil {
		return result{}, err
	}
	l := newLedger()
	l.ref = newRefClock()
	l.ref.warm()
	mem := startRSS()
	passes, err := w.run(ctx, cfg.seconds, rand.New(rand.NewSource(cfg.seed)), nil, l)
	if err != nil {
		return result{}, err
	}
	l.ref.sample()
	var until time.Time
	if m, ok := w.(memMarker); ok {
		until = m.memMark()
	}
	rss, slices := mem.finish(time.Duration(median(passes)*float64(time.Second)), until)
	w.finish(ctx, l)
	ref := l.ref.unit()

	rows := []named{
		{name: "setup_s", value: median(setups), unit: "s", n: len(setups), note: fmt.Sprintf("rounds %.3f", setups)},
		{name: "max_rss_mb", value: rss, unit: "MB", n: slices, note: "median of 1 s peaks"},
		{name: "fail_ratio", value: float64(l.failed) / float64(max(l.attempted, 1)), unit: "ratio", n: l.attempted},
		{name: "ref_ms", value: ref * 1e3, unit: "ms", n: len(l.ref.samples), note: "median reference kernel"},
		{name: "pass_s", value: trimmedMean(passes), unit: "s", n: len(passes), note: "10% trimmed mean pass"},
		{name: "pass_ref", value: trimmedMean(passes) / ref, unit: "ref", n: len(passes), note: "pass_s / ref"},
		{name: "op_ref_gmean", value: l.gmeanTrimmed() / ref, unit: "ref", n: len(l.ops), note: "op classes"},
	}
	printNamed(stdout, cfg.workload, append(rows, w.named(l, passes)...))
	l.errReport(stdout)

	return result{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setups), "s"},
			"max_rss_mb":   {rss, "MB"},
			"pass_ref":     {trimmedMean(passes) / ref, "ref"},
			"op_ref_gmean": {l.gmeanTrimmed() / ref, "ref"},
		},
	}, nil
}
