package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/arch"
	"repro/internal/obs"
)

// wireSpec is one app run a wire workload repeats on every wire backend.
type wireSpec struct {
	App   string
	Size  int
	Procs int
}

func (s wireSpec) id() string { return fmt.Sprintf("%s-%d-p%d", s.App, s.Size, s.Procs) }

func (s wireSpec) spec(backend string) arch.Spec {
	return arch.Spec{App: s.App, Size: s.Size, Procs: s.Procs, Backend: backend}
}

// haloSpecs are many small messages: poisson sends 18,618 messages of
// about 210 B, cfd 600 of about 2.8 KB. Per-message transport and
// wake-up cost dominates; codec bandwidth and world start are a small
// share.
var haloSpecs = []wireSpec{{"poisson", 49, 2}, {"cfd", 128, 2}}

// bulkSpecs are the same backends used for bytes instead of counts: fft
// (10 msgs, 8.4 MB) and mergesort (4 msgs, 4.2 MB) at P=2, and streamfft
// at P=4 (771 msgs, 25 MB), the smallest P the stream farms and credits
// run on. Codec, copying and world start dominate, so a codec or
// transport change that helps one message size and hurts the other shows
// on one of halo and bulk.
var bulkSpecs = []wireSpec{{"fft", 512, 2}, {"mergesort", 1 << 21, 2}, {"streamfft", 512, 4}}

// wireBackends are the backends a wire workload compares; sim is the
// oracle their meters must equal.
var wireBackends = []string{"real", "dist", "elastic"}

// expect is what a spec's run must produce on every backend.
type expect struct {
	summary     string
	msgs, bytes int64
}

type wire struct {
	name   string
	specs  []wireSpec
	nround int
	oracle map[string]expect // spec id → the sim run's summary and meters
	// sums is each backend's summed op time per pass of the timed window.
	sums map[string][]float64
}

func newWire(name string, specs []wireSpec, rounds int) *wire {
	return &wire{name: name, specs: specs, nround: rounds}
}

// prepare runs every spec once on the simulator: the parity contract
// says real, dist and elastic must report the same summary and the same
// msgs and bytes.
func (w *wire) prepare(ctx context.Context) error {
	w.oracle = map[string]expect{}
	for _, s := range w.specs {
		sum, rep, err := arch.RunSpec(ctx, s.spec("sim"))
		if err != nil {
			return fmt.Errorf("%s on sim: %w", s.id(), err)
		}
		w.oracle[s.id()] = expect{sum, rep.Msgs, rep.Bytes}
	}
	return nil
}

func (w *wire) rounds() int { return w.nround }

// setup runs one untimed warm-up op per spec and backend.
func (w *wire) setup(ctx context.Context) error {
	for _, s := range w.specs {
		for _, b := range wireBackends {
			if _, _, err := w.op(ctx, s, b, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// op runs one spec on one backend through arch.RunSpec and checks it
// against the oracle. The time is RunSpec's wall time: time to a
// verified solution, world start included.
func (w *wire) op(ctx context.Context, s wireSpec, backend string, tr *tracer) (float64, arch.Report, error) {
	op := tr.newOp()
	root := tr.begin(op, -1, "other", s.id()+" on "+backend)
	secs, rep, err := runSpec(ctx, tr, op, root, s.spec(backend))
	tr.end(root)
	if err != nil {
		return 0, rep.Report, fmt.Errorf("%s on %s: %w", s.id(), backend, err)
	}
	want := w.oracle[s.id()]
	if rep.summary != want.summary {
		return 0, rep.Report, fmt.Errorf("%s on %s: summary %q, sim says %q", s.id(), backend, rep.summary, want.summary)
	}
	if rep.Msgs != want.msgs || rep.Bytes != want.bytes {
		return 0, rep.Report, fmt.Errorf("%s on %s: %d msgs %d bytes, sim %d msgs %d bytes",
			s.id(), backend, rep.Msgs, rep.Bytes, want.msgs, want.bytes)
	}
	return secs, rep.Report, nil
}

// specReport is RunSpec's summary and report together.
type specReport struct {
	summary string
	arch.Report
}

// runSpec calls arch.RunSpec, traced when tr is on: a span for the call
// (layer arch) with the world's spans from the program's own recorder
// under it.
func runSpec(ctx context.Context, tr *tracer, op, parent int, sp arch.Spec) (float64, specReport, error) {
	var col *obs.Collector
	var off int64
	if tr != nil {
		col, off = tr.collector()
		ctx = obs.NewContext(ctx, col)
	}
	call := tr.begin(op, parent, "arch", "RunSpec")
	t0 := time.Now()
	sum, rep, err := arch.RunSpec(ctx, sp)
	secs := time.Since(t0).Seconds()
	tr.end(call)
	if tr != nil {
		for _, rec := range col.Runs() {
			tr.addWorld(op, call, sp.Backend, rec, off)
		}
		tr.countDropped(col)
	}
	return secs, specReport{sum, rep}, err
}

// wireOp is what one traced wire op leaves for the survey.
type wireOp struct {
	spec    wireSpec
	backend string
	secs    float64
	rep     arch.Report
}

// pass runs every spec on every backend once, in the order rng gives,
// and returns the summed time and each backend's share of it.
func (w *wire) pass(ctx context.Context, rng *rand.Rand, tr *tracer, l *ledger, each func(wireOp)) (float64, map[string]float64) {
	type pair struct {
		s wireSpec
		b string
	}
	var pairs []pair
	for _, s := range w.specs {
		for _, b := range wireBackends {
			pairs = append(pairs, pair{s, b})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	var total float64
	perBackend := map[string]float64{}
	for _, p := range pairs {
		secs, rep, err := w.op(ctx, p.s, p.b, tr)
		l.record(p.b+"/"+p.s.id(), secs, err)
		total += secs
		perBackend[p.b] += secs
		l.ref.tick()
		if each != nil && err == nil {
			each(wireOp{p.s, p.b, secs, rep})
		}
	}
	return total, perBackend
}

func (w *wire) run(ctx context.Context, seconds float64, rng *rand.Rand, tr *tracer, l *ledger) ([]float64, error) {
	w.sums = map[string][]float64{}
	return passLoop(seconds, func() float64 {
		total, perBackend := w.pass(ctx, rng, tr, l, nil)
		for b, secs := range perBackend {
			w.sums[b] = append(w.sums[b], secs)
		}
		return total
	}), nil
}

func (w *wire) finish(context.Context, *ledger) {}

// named reports real_s, dist_s and elastic_s: the median over passes of
// the summed RunSpec time of that backend's specs.
func (w *wire) named(l *ledger, passes []float64) []named {
	var rows []named
	for _, b := range wireBackends {
		rows = append(rows, named{name: b + "_s", value: median(w.sums[b]), unit: "s", n: len(w.sums[b]),
			note: "median pass, summed RunSpec time"})
	}
	for _, b := range wireBackends {
		for _, s := range w.specs {
			xs := l.ops[b+"/"+s.id()]
			rows = append(rows, named{name: b + "." + s.id(), value: median(xs), unit: "s", n: len(xs)})
		}
	}
	return rows
}

func (w *wire) close() {}
