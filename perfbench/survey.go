package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/arch"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rescache"
	"repro/internal/spmd"
)

// serveSurveySeconds is the length of each of the survey's two serve
// windows (untraced, then traced).
const serveSurveySeconds = 2

// layers collects the per-layer metrics of a traced run.
type layers map[string]metric

func (ly layers) put(name string, v float64, unit string) { ly[name] = metric{v, unit} }

// survey is the --trace 1 run. Whatever workload is named, it surveys
// every layer the benchmark measures, so every traced run reports the
// same per-layer set: the micro-probes first, then for each workload an
// untraced pass that warms it up, a traced pass whose spans and recorder
// data give the layer numbers, and a second untraced pass the traced one
// is compared with (obs.overhead_pct). The spans are kept in memory,
// checked by the layer-sum rule, and written as one Chrome trace.
func survey(ctx context.Context, cfg config, host map[string]any, stdout io.Writer) (result, error) {
	tr := newTracer()
	l := newLedger()
	ly := layers{}
	rng := rand.New(rand.NewSource(cfg.seed))

	if err := probeCodec(ly); err != nil {
		return result{}, err
	}
	canon, key, get, err := probeCache(ctx, cfg.dir, ly)
	if err != nil {
		return result{}, err
	}
	if err := probeWorldStart(ctx, ly); err != nil {
		return result{}, err
	}
	probeKernels(ctx, l, ly)

	if err := surveySweep(ctx, cfg, rng, tr, l, ly); err != nil {
		return result{}, err
	}
	if err := surveyWire(ctx, rng, tr, l, ly); err != nil {
		return result{}, err
	}
	if err := surveyServe(ctx, cfg, rng, tr, l, ly, canon+key+get); err != nil {
		return result{}, err
	}

	ops, sumErr := tr.layerSum()
	var worst float64
	for _, o := range ops {
		worst = max(worst, abs(float64(o.sum()-o.Wall))/float64(max(o.Wall, 1))*100)
	}
	ly.put("layersum.max_err_pct", worst, "%")
	ly.put("obs.dropped", float64(tr.dropped), "count")
	ly.put("fail_ratio", float64(l.failed)/float64(max(l.attempted, 1)), "ratio")
	if sumErr != nil {
		l.fail(sumErr)
	}
	if tr.dropped != 0 {
		l.fail(fmt.Errorf("flight recorder dropped %d events or runs; the traced numbers undercount", tr.dropped))
	}

	printLayerShares(stdout, tr, ops)
	fmt.Fprintf(stdout, "layer-sum check: %d ops, worst %.3f%% off wall time (tolerance: 1%% or 50 µs per op)\n", len(ops), worst)
	for _, name := range sortedKeys(ly) {
		fmt.Fprintf(stdout, "  %-34s %16.4f %s\n", name, ly[name].Value, ly[name].Unit)
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(path, host); err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, "trace:", path)
	l.errReport(stdout)
	return result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: ly}, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// printLayerShares prints, per workload, each layer's share of the ops'
// summed wall time.
func printLayerShares(w io.Writer, tr *tracer, ops []opLayers) {
	byGroup := map[string]map[string]int64{}
	wall := map[string]int64{}
	for _, o := range ops {
		g := tr.group(o.Op)
		if byGroup[g] == nil {
			byGroup[g] = map[string]int64{}
		}
		for layer, ns := range o.Layers {
			byGroup[g][layer] += ns
		}
		wall[g] += o.Wall
	}
	for _, g := range sortedKeys(byGroup) {
		var parts []string
		for _, layer := range sortedKeys(byGroup[g]) {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", layer, float64(byGroup[g][layer])/float64(wall[g])*100))
		}
		fmt.Fprintf(w, "layers %s (%.3f s traced): %s\n", g, float64(wall[g])/1e9, strings.Join(parts, ", "))
	}
}

// surveySweep: figures, sched and sim layers.
func surveySweep(ctx context.Context, cfg config, rng *rand.Rand, tr *tracer, l *ledger, ly layers) error {
	w := newSweep(cfg.dir)
	if err := w.prepare(ctx); err != nil {
		return err
	}
	w.pass(ctx, rng, nil, l, nil)
	tr.setGroup("sweep")
	var waits []float64
	var busy int64
	var wall float64
	var worlds int
	var msgs int64
	traced := w.pass(ctx, rng, tr, l, func(id string, fo figOp) {
		ly.put("figures.fig_s."+id, fo.wall, "s")
		waits = append(waits, fo.waits...)
		busy += fo.busy
		wall += fo.wall
		worlds += fo.worlds
		msgs += fo.msgs
	})
	untraced := w.pass(ctx, rng, nil, l, nil)
	ly.put("sched.queue_wait_ms", median(waits), "ms")
	ly.put("sched.pool_busy_ratio", float64(busy)/1e9/(float64(runtime.GOMAXPROCS(0))*wall), "ratio")
	ly.put("sim.cells", float64(worlds), "count")
	ly.put("sim.msgs_per_host_s", float64(msgs)/wall, "1/s")
	ly.put("obs.overhead_pct.sweep", (traced/untraced-1)*100, "%")
	return nil
}

// surveyWire: the real, dist and elastic backends, the spmd meters and
// the stream farms, from traced halo and bulk passes.
func surveyWire(ctx context.Context, rng *rand.Rand, tr *tracer, l *ledger, ly layers) error {
	busy, blocked, comm := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, wl := range []*wire{newWire("halo", haloSpecs, 1), newWire("bulk", bulkSpecs, 1)} {
		if err := wl.prepare(ctx); err != nil {
			return err
		}
		wl.pass(ctx, rng, nil, l, nil)
		tr.setGroup(wl.name)
		traced, _ := wl.pass(ctx, rng, tr, l, func(o wireOp) {
			b := o.backend
			if o.rep.Obs == nil {
				return
			}
			var wait float64
			for _, r := range o.rep.Obs.Ranks {
				busy[b] += r.BusySec
				blocked[b] += r.BlockedSec
				comm[b] += r.CommSec
				wait += r.BlockedSec + r.CommSec
			}
			switch o.spec.App {
			case "poisson":
				ly.put(b+".us_per_msg", wait/float64(o.rep.Msgs)*1e6, "us")
			case "streamfft":
				ly.put(b+".stream_elems_per_s", float64(o.spec.Size)/o.secs, "1/s")
			}
			ly.put("spmd.msgs."+o.spec.id(), float64(o.rep.Msgs), "count")
			ly.put("spmd.bytes."+o.spec.id(), float64(o.rep.Bytes), "count")
		})
		untraced, _ := wl.pass(ctx, rng, nil, l, nil)
		ly.put("obs.overhead_pct."+wl.name, (traced/untraced-1)*100, "%")
	}
	for _, b := range wireBackends {
		ly.put(b+".busy_s", busy[b], "s")
		ly.put(b+".blocked_s", blocked[b], "s")
		ly.put(b+".comm_s", comm[b], "s")
	}
	return nil
}

// surveyServe: the serve, rescache-hit and trace-export layers, from an
// untraced and a traced window against one server.
func surveyServe(ctx context.Context, cfg config, rng *rand.Rand, tr *tracer, l *ledger, ly layers, warmLayersUS float64) error {
	w := newServe(cfg.dir)
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return err
	}
	var all []outcome
	untraced, err := w.run(ctx, serveSurveySeconds, rng, nil, l)
	if err != nil {
		return err
	}
	var warm []float64
	for _, o := range w.outcomes {
		if o.class == "warm" && o.err == nil {
			warm = append(warm, o.end.Sub(o.start).Seconds()*1e6)
		}
	}
	all = append(all, w.outcomes...)
	tr.setGroup("serve")
	traced, err := w.run(ctx, serveSurveySeconds, rng, tr, l)
	if err != nil {
		return err
	}
	all = append(all, w.outcomes...)
	w.outcomes = all
	w.finish(ctx, l)

	var queue, run, traceKB []float64
	var coalesced, rejected int
	for _, o := range all {
		if !o.running.IsZero() && !o.done.IsZero() {
			queue = append(queue, o.running.Sub(o.submitted).Seconds()*1e3)
			run = append(run, o.done.Sub(o.running).Seconds()*1e3)
		}
		if o.traceBytes > 0 {
			traceKB = append(traceKB, float64(o.traceBytes)/1024)
		}
		if o.status.Coalesced {
			coalesced++
		}
		if o.rejected {
			rejected++
		}
	}
	prom, err := promValues(ctx, w.base, "archserve_cache_hits_total", "archserve_cache_misses_total")
	if err != nil {
		return err
	}
	hits, misses := prom["archserve_cache_hits_total"], prom["archserve_cache_misses_total"]
	ly.put("serve.queue_ms", median(queue), "ms")
	ly.put("serve.run_ms", median(run), "ms")
	ly.put("serve.self_us", median(warm)-warmLayersUS, "us")
	ly.put("serve.coalesced", float64(coalesced), "count")
	ly.put("serve.rejected", float64(rejected), "count")
	ly.put("rescache.hit_ratio", hits/max(hits+misses, 1), "ratio")
	ly.put("obs.trace_kb", median(traceKB), "KB")
	ly.put("obs.overhead_pct.serve", (median(traced)/median(untraced)-1)*100, "%")
	return nil
}

// timeEach returns the median time of one call of f in µs, measured over
// reps batches of n calls.
func timeEach(reps, n int, f func(i int) error) (float64, error) {
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n)/1e3)
	}
	return median(per), nil
}

// probeCodec times spmd.AppendPayload and DecodePayload on the payload
// shapes the wire workloads ship: 1 MiB []complex128 and []int32 blocks
// (fft, streamfft and mergesort on bulk), and a 49-element []float64
// halo row (poisson on halo).
func probeCodec(ly layers) error {
	big := []any{make([]complex128, 1<<16), make([]int32, 1<<18)}
	small := any(make([]float64, 49))
	var buf []byte
	var bigBytes int
	encBig := func(int) error {
		bigBytes = 0
		for _, v := range big {
			var err error
			if buf, err = spmd.AppendPayload(buf[:0], v); err != nil {
				return err
			}
			bigBytes += len(buf)
		}
		return nil
	}
	usEnc, err := timeEach(7, 4, encBig)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	var frames [][]byte
	for _, v := range big {
		b, err := spmd.AppendPayload(nil, v)
		if err != nil {
			return fmt.Errorf("codec: %w", err)
		}
		frames = append(frames, b)
	}
	usDec, err := timeEach(7, 4, func(int) error {
		for _, f := range frames {
			if _, _, err := spmd.DecodePayload(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	ly.put("spmd.encode_mb_s", float64(bigBytes)/usEnc, "MB/s")
	ly.put("spmd.decode_mb_s", float64(bigBytes)/usDec, "MB/s")

	usEncSmall, err := timeEach(7, 20000, func(int) error {
		var err error
		buf, err = spmd.AppendPayload(buf[:0], small)
		return err
	})
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	row, err := spmd.AppendPayload(nil, small)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	usDecSmall, err := timeEach(7, 20000, func(int) error {
		_, _, err := spmd.DecodePayload(row)
		return err
	})
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	ly.put("spmd.encode_ns_small", usEncSmall*1e3, "ns")
	ly.put("spmd.decode_ns_small", usDecSmall*1e3, "ns")
	return nil
}

// probeCache times arch.Spec.Canonical, rescache.Key, Put and Get on a
// scratch cache directory, and returns the three costs every warm
// request pays (canonical, key, get) in µs.
func probeCache(ctx context.Context, dir string, ly layers) (canon, key, get float64, err error) {
	specs := warmSpecs
	canon, err = timeEach(7, 2000, func(i int) error {
		_, err := specs[i%len(specs)].Canonical()
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	key, err = timeEach(7, 2000, func(i int) error {
		_, err := rescache.Key(specs[i%len(specs)])
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	cdir, err := os.MkdirTemp(dir, "rescache-probe-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(cdir)
	cache, err := rescache.Open(cdir)
	if err != nil {
		return 0, 0, 0, err
	}
	sum, rep, err := arch.RunSpec(ctx, specs[0])
	if err != nil {
		return 0, 0, 0, err
	}
	const n = 200
	keys := make([]string, n)
	entries := make([]*rescache.Entry, n)
	for i := range keys {
		sp := arch.Spec{App: "mergesort", Size: 1000 + i, Procs: 2, Backend: "sim"}
		c, err := sp.Canonical()
		if err != nil {
			return 0, 0, 0, err
		}
		if keys[i], err = rescache.Key(c); err != nil {
			return 0, 0, 0, err
		}
		entries[i] = &rescache.Entry{Spec: c, Summary: sum, Report: rep, Created: time.Now().UTC()}
	}
	put, err := timeEach(1, n, func(i int) error { return cache.Put(keys[i], entries[i]) })
	if err != nil {
		return 0, 0, 0, err
	}
	get, err = timeEach(5, n, func(i int) error {
		if _, ok := cache.Get(keys[i]); !ok {
			return fmt.Errorf("rescache: entry %d missing after Put", i)
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	ly.put("arch.canonical_us", canon, "us")
	ly.put("rescache.key_us", key, "us")
	ly.put("rescache.put_us", put, "us")
	ly.put("rescache.get_us", get, "us")
	return canon, key, get, nil
}

// probeWorldStart times an empty-body P=2 world through core.Run on each
// wire backend: spawn or attach, handshake, and teardown.
func probeWorldStart(ctx context.Context, ly layers) error {
	for _, b := range wireBackends {
		r, err := arch.ResolveBackend(b)
		if err != nil {
			return err
		}
		var ms []float64
		for i := 0; i < 11; i++ {
			t0 := time.Now()
			if _, err := core.Run(ctx, r, 2, machine.IBMSP(), func(*spmd.Proc) {}); err != nil {
				return fmt.Errorf("%s world start: %w", b, err)
			}
			if i > 0 { // the first world is a warm-up
				ms = append(ms, time.Since(t0).Seconds()*1e3)
			}
		}
		ly.put(b+".world_start_ms", median(ms), "ms")
	}
	return nil
}

// kernelSpecs are the P=1 real-backend baselines of the wire workloads'
// kernels.
var kernelSpecs = []wireSpec{{"poisson", 49, 1}, {"cfd", 128, 1}, {"fft", 512, 1}, {"mergesort", 1 << 21, 1}}

// probeKernels runs each kernel twice on one real process and keeps the
// faster run.
func probeKernels(ctx context.Context, l *ledger, ly layers) {
	for _, s := range kernelSpecs {
		var secs []float64
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			_, _, err := arch.RunSpec(ctx, s.spec("real"))
			l.record("kernel", time.Since(t0).Seconds(), err)
			if err == nil {
				secs = append(secs, time.Since(t0).Seconds())
			}
		}
		sort.Float64s(secs)
		if len(secs) > 0 {
			ly.put("kernel.seq_s."+s.App, secs[0], "s")
		}
	}
}
