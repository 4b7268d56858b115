package main

import (
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/backend/dist"
	"repro/internal/elastic"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current figures")

// TestMain lets the test binary serve as the dist and elastic workers it
// spawns, as the benchmark's main does.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	elastic.MaybeWorker()
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n, beyond int
		max, p    float64
		ok        bool
	}{
		{n: 5, ok: false},
		{n: 19, ok: false}, // the median leaves 9 beyond
		{n: 20, max: 99, p: 50, beyond: 10, ok: true},
		{n: 40, max: 99, p: 75, beyond: 10, ok: true},
		{n: 100, max: 99, p: 90, beyond: 10, ok: true},
		{n: 199, max: 99, p: 90, beyond: 19, ok: true}, // p95 leaves 9
		{n: 200, max: 99, p: 95, beyond: 10, ok: true},
		{n: 1000, max: 99, p: 99, beyond: 10, ok: true},
		{n: 100000, max: 99, p: 99, beyond: 1000, ok: true},
		{n: 100000, max: 100, p: 99.9, beyond: 100, ok: true},
		{n: 5000, max: 95, p: 95, beyond: 250, ok: true},
	}
	for _, c := range cases {
		max := c.max
		if max == 0 {
			max = 100
		}
		p, beyond, ok := tailPercentile(c.n, max)
		if ok != c.ok || (ok && (p != c.p || beyond != c.beyond)) {
			t.Errorf("tailPercentile(%d, %g) = p%g, %d beyond, %v; want p%g, %d beyond, %v", c.n, max, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("percentile(1..100, 90) = %g, want 90", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "figures.fig_s.A5", "obs.overhead_pct.serve", "spmd.bytes.mergesort-2097152-p2", "9x"} {
		if err := checkMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "rescache/get", "µs", "p99%", strings.Repeat("a", 65)} {
		if checkMetricName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// Every metric the benchmark declares must pass the same rule.
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		if err := checkMetricName(m.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestAttribute checks the layer-sum rule: nested spans split an op's
// wall time exactly, concurrent siblings count once, and a span outside
// its op's root breaks the sum.
func TestAttribute(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Layer: "other", Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Layer: "figures", Start: 10, End: 90},
		{Op: 1, ID: 2, Parent: 1, Layer: "sched.cell", Start: 20, End: 60},
		{Op: 1, ID: 3, Parent: 1, Layer: "sched.cell", Start: 40, End: 80},
	}
	ol, err := attribute(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"other": 20, "figures": 20, "sched.cell": 60}
	for k, v := range want {
		if ol.Layers[k] != v {
			t.Errorf("layer %s = %d, want %d", k, ol.Layers[k], v)
		}
	}
	if ol.sum() != ol.Wall {
		t.Errorf("layers sum to %d, wall %d", ol.sum(), ol.Wall)
	}
	spans = append(spans, span{Op: 1, ID: 4, Parent: 1, Layer: "arch", Start: 95, End: 200})
	ol, err = attribute(spans)
	if err != nil {
		t.Fatal(err)
	}
	if ol.sum() <= ol.Wall {
		t.Errorf("a span past the root still sums to %d (wall %d)", ol.sum(), ol.Wall)
	}
	if _, err := attribute([]span{{Op: 2, ID: 0, Parent: -1, Start: 5, End: -1}}); err == nil {
		t.Error("an unended span was accepted")
	}
}

// TestGolden recomputes every sweep figure's digest; with -update it
// rewrites golden.json instead of comparing.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep figure")
	}
	w := newSweep(t.TempDir())
	if err := w.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	fresh := golden{Sweep: map[string]string{}}
	for _, id := range sweepFigures {
		_, fo, err := w.op(context.Background(), id, nil)
		if err != nil && (!*update || fo.digest == "") {
			t.Fatal(err)
		}
		fresh.Sweep[id] = fo.digest
	}
	if *update {
		blob, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSmoke runs one op of each workload, checks included.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	t.Run("sweep", func(t *testing.T) {
		w := newSweep(dir)
		if err := w.prepare(ctx); err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		if _, fo, err := w.op(ctx, "15", tr); err != nil {
			t.Fatal(err)
		} else if fo.worlds == 0 || len(fo.waits) == 0 {
			t.Errorf("traced figure op recorded %d worlds, %d queue waits", fo.worlds, len(fo.waits))
		}
		checkLayerSum(t, tr)
	})
	for _, c := range []struct {
		name    string
		specs   []wireSpec
		backend string
	}{{"halo", haloSpecs[1:], "dist"}, {"bulk", bulkSpecs[:1], "elastic"}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := newWire(c.name, c.specs, 1)
			if err := w.prepare(ctx); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			_, rep, err := w.op(ctx, c.specs[0], c.backend, tr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Obs == nil {
				t.Error("traced op has no recorder summary")
			}
			checkLayerSum(t, tr)
		})
	}
	t.Run("serve", func(t *testing.T) {
		w := newServe(dir)
		defer w.close()
		if err := w.setup(ctx); err != nil {
			t.Fatal(err)
		}
		sch := newSchedule(rand.New(rand.NewSource(1)))
		tr := newTracer()
		for _, class := range []string{"warm", "cold", "traced"} {
			r := sch.take()
			for r.class != class {
				r = sch.take()
			}
			if err := w.check(w.request(ctx, w.clients[0], r, tr)); err != nil {
				t.Error(err)
			}
		}
		checkLayerSum(t, tr)
	})
}

func checkLayerSum(t *testing.T, tr *tracer) {
	t.Helper()
	ops, err := tr.layerSum()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no traced ops")
	}
	if tr.dropped != 0 {
		t.Errorf("recorder dropped %d events", tr.dropped)
	}
}
