package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/sched"
)

// sweepFigures are the paper figures the sweep regenerates: mergesort
// (6), Poisson (15), CFD (16), FDTD (17) and the machine-class ablation
// (A5), all on the simulator at scale 1. Their time is in the sched pool,
// the sim mailbox, machine pricing, collectives and kernels; no socket,
// codec, HTTP or rescache call is made, so the sweep is the control that
// wire and service changes must leave alone.
var sweepFigures = []string{"6", "15", "16", "17", "A5"}

//go:embed golden.json
var goldenJSON []byte

// golden holds the expected digest of each figure's curves. Simulator
// virtual time is deterministic, so a figure's curves (process counts,
// virtual times, msgs, bytes) and its CSV repeat byte for byte.
type golden struct {
	Sweep map[string]string `json:"sweep"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// curvesDigest hashes a figure's curves: every point's process count,
// virtual time bits, msgs and bytes, then the figure's CSV.
func curvesDigest(curves []*core.Curve) (string, error) {
	h := sha256.New()
	for _, c := range curves {
		fmt.Fprintf(h, "%s %x\n", c.Name, math.Float64bits(c.SeqTime))
		for _, p := range c.Points {
			fmt.Fprintf(h, "%d %x %d %d\n", p.Procs, math.Float64bits(p.Time), p.Msgs, p.Bytes)
		}
	}
	if err := core.WriteCSV(h, curves...); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

type sweep struct {
	dir    string
	golden golden
}

func newSweep(dir string) *sweep { return &sweep{dir: dir} }

func (w *sweep) prepare(context.Context) error {
	g, err := loadGolden()
	w.golden = g
	return err
}

// rounds: a sweep round is a whole warm-up pass (about 5 s), so two.
func (w *sweep) rounds() int { return 2 }

// setup runs one untimed warm-up op per figure.
func (w *sweep) setup(ctx context.Context) error {
	for _, id := range sweepFigures {
		if _, _, err := w.op(ctx, id, nil); err != nil {
			return err
		}
	}
	return nil
}

// figOp is what one figure op leaves for the survey and the golden test.
type figOp struct {
	digest string
	wall   float64 // seconds
	waits  []float64
	busy   int64 // ns of cell execution
	worlds int
	msgs   int64
}

// op regenerates one figure and checks its curves against the golden
// digest. Every op computes its cells fresh: the shared scheduler's cell
// cache is reset first, so nothing is reused across ops.
func (w *sweep) op(ctx context.Context, id string, tr *tracer) (float64, figOp, error) {
	f, ok := figures.ByID(id)
	if !ok {
		return 0, figOp{}, fmt.Errorf("figure %s is not registered", id)
	}
	sched.Shared().Reset()
	op := tr.newOp()
	root := tr.begin(op, -1, "other", "fig "+id)
	var col *obs.Collector
	var off int64
	if tr != nil {
		col, off = tr.collector()
		ctx = obs.NewContext(ctx, col)
	}
	call := tr.begin(op, root, "figures", "Figure.Run")
	t0 := time.Now()
	res, err := f.Run(figures.Options{Ctx: ctx, Out: io.Discard, Dir: w.dir, Scale: 1})
	secs := time.Since(t0).Seconds()
	tr.end(call)
	var fo figOp
	if tr != nil {
		fo.waits, fo.busy = tr.addCells(op, call, col, off)
		fo.worlds = len(col.Runs())
		tr.countDropped(col)
	}
	tr.end(root)
	if err != nil {
		return 0, fo, fmt.Errorf("figure %s: %w", id, err)
	}
	fo.wall = secs
	for _, c := range res.Curves {
		for _, p := range c.Points {
			fo.msgs += p.Msgs
		}
	}
	fo.digest, err = curvesDigest(res.Curves)
	if err != nil {
		return 0, fo, err
	}
	if want := w.golden.Sweep[id]; fo.digest != want {
		return 0, fo, fmt.Errorf("figure %s: curves digest %.12s, golden %.12s", id, fo.digest, want)
	}
	return secs, fo, nil
}

// shuffled returns the figures in the order rng gives.
func shuffled(rng *rand.Rand, ids []string) []string {
	out := append([]string(nil), ids...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pass runs every figure once; its time is the sum of the figure ops.
func (w *sweep) pass(ctx context.Context, rng *rand.Rand, tr *tracer, l *ledger, each func(string, figOp)) float64 {
	var total float64
	for _, id := range shuffled(rng, sweepFigures) {
		secs, fo, err := w.op(ctx, id, tr)
		l.record(id, secs, err)
		total += secs
		l.ref.tick()
		if each != nil && err == nil {
			each(id, fo)
		}
	}
	return total
}

func (w *sweep) run(ctx context.Context, seconds float64, rng *rand.Rand, tr *tracer, l *ledger) ([]float64, error) {
	return passLoop(seconds, func() float64 { return w.pass(ctx, rng, tr, l, nil) }), nil
}

func (w *sweep) finish(context.Context, *ledger) {}

func (w *sweep) named(l *ledger, passes []float64) []named {
	rows := []named{{name: "sweep_s", value: median(passes), unit: "s", n: len(passes), note: "median pass over figures 6 15 16 17 A5"}}
	for _, id := range sweepFigures {
		rows = append(rows, named{name: "fig_s." + id, value: median(l.ops[id]), unit: "s", n: len(l.ops[id])})
	}
	return rows
}

func (w *sweep) close() {}
