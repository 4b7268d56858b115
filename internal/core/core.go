// Package core implements the paper's primary contribution: the archetype
// program-development method.
//
// The method (§1.2) develops a parallel application in stages:
//
//  1. Start from a sequential algorithm and identify an archetype.
//  2. Write an initial archetype-based version (version 1) using
//     data-parallel constructs — the paper's parfor/forall, here ParFor —
//     which can be executed sequentially for debugging; for deterministic
//     programs sequential and concurrent execution give identical results.
//  3. Transform version 1 into an SPMD program (version 2) for a
//     distributed-memory message-passing machine, with communication
//     encapsulated in the archetype's library (package collective).
//  4. Measure: the Experiment type runs the SPMD program over a sweep of
//     process counts and reports speedup curves in the form of the
//     paper's figures.
//
// Step 4 runs on a pluggable execution backend (package backend): the
// virtual-time simulator (backend.Sim, the default, deterministic
// makespans from a machine.Model), the real shared-memory backend
// (backend.Real, goroutines over the in-process mailbox metered by the
// wall clock), or any other registered runner such as dist or elastic.
// An Experiment selects its backend via the Backend field; Run and
// Simulate are the one-shot entry points. Sweeping a whole matrix of
// experiments concurrently is package sched's job.
//
// The two archetypes the paper develops — one-deep divide and conquer and
// mesh-spectral — live in packages onedeep and meshspectral and build on
// the machinery here.
package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// Mode selects how ParFor executes its iterations. The paper's version-1
// programs are written once and run in either mode with identical results
// (for deterministic programs) — Sequential is the debugging mode,
// Concurrent the execution mode.
type Mode int

const (
	// Sequential runs iterations in index order on the calling goroutine
	// (the paper's "replace parfor with for").
	Sequential Mode = iota
	// Concurrent runs the iterations concurrently, chunked over
	// GOMAXPROCS worker goroutines, and waits for all of them.
	Concurrent
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParFor is the paper's parfor/forall construct: n independent iterations.
// The iterations must be independent — writing disjoint data and not
// communicating with each other — which is exactly the archetype
// precondition that makes the two modes equivalent. Concurrent mode chunks
// the index space over GOMAXPROCS worker goroutines rather than spawning
// one goroutine per iteration, so million-iteration parfors cost a handful
// of goroutines instead of a million.
func ParFor(m Mode, n int, body func(i int)) {
	switch m {
	case Sequential:
		for i := 0; i < n; i++ {
			body(i)
		}
	case Concurrent:
		workers := runtime.GOMAXPROCS(0)
		if workers > n {
			workers = n
		}
		if workers <= 1 {
			for i := 0; i < n; i++ {
				body(i)
			}
			return
		}
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					body(i)
				}
			}()
		}
		wg.Wait()
	default:
		panic(fmt.Sprintf("core: invalid ParFor mode %d", int(m)))
	}
}

// Program is an SPMD program body: it is run once per process.
type Program func(p *spmd.Proc)

// Run executes prog on an n-process world over the given machine model on
// the given execution backend. Cancelling ctx aborts the run mid-flight:
// processes blocked in communication unwind and Run returns ctx.Err().
func Run(ctx context.Context, r backend.Runner, n int, m *machine.Model, prog Program) (*spmd.Result, error) {
	w, err := spmd.NewWorldOn(ctx, r, n, m)
	if err != nil {
		return nil, err
	}
	return w.Run(prog)
}

// Simulate runs prog on an n-process world over the given machine model
// on the virtual-time simulator backend and returns the run's result.
func Simulate(n int, m *machine.Model, prog Program) (*spmd.Result, error) {
	return Run(context.Background(), backend.Default(), n, m, prog)
}

// Experiment pairs a sequential baseline with an SPMD program so speedup
// curves can be produced the way the paper's figures define them:
// speedup(P) = T(sequential program) / T(SPMD program on P processes).
type Experiment struct {
	Name  string
	Model *machine.Model
	// Backend is the execution backend runs go to; nil means the
	// virtual-time simulator.
	Backend backend.Runner
	// Seq is the sequential algorithm, run on a 1-process world (no
	// communication is priced except self-copies). If nil, the baseline
	// is Par run with one process.
	Seq Program
	// Par is the SPMD program; it discovers the process count via
	// p.N().
	Par Program
}

// Runner returns the experiment's execution backend, defaulting to the
// virtual-time simulator.
func (e *Experiment) Runner() backend.Runner {
	if e.Backend != nil {
		return e.Backend
	}
	return backend.Default()
}

// Baseline runs the experiment's sequential baseline — Seq, or Par with
// one process — and returns its result.
func (e *Experiment) Baseline(ctx context.Context) (*spmd.Result, error) {
	seqProg := e.Seq
	if seqProg == nil {
		seqProg = e.Par
	}
	res, err := Run(ctx, e.Runner(), 1, e.Model, seqProg)
	if err != nil {
		return nil, fmt.Errorf("experiment %q: sequential baseline: %w", e.Name, err)
	}
	return res, nil
}

// Point runs the experiment's SPMD program on n processes and returns the
// raw run result: one cell of the sweep matrix. Package sched dispatches
// Point calls concurrently.
func (e *Experiment) Point(ctx context.Context, n int) (*spmd.Result, error) {
	res, err := Run(ctx, e.Runner(), n, e.Model, e.Par)
	if err != nil {
		return nil, fmt.Errorf("experiment %q: %d processes: %w", e.Name, n, err)
	}
	return res, nil
}

// Point is one measurement of a speedup curve.
type Point struct {
	Procs   int
	Time    float64 // simulated parallel time, seconds
	Speedup float64 // SeqTime / Time
	Msgs    int64
	Bytes   int64
}

// Curve is a named speedup series, the unit the paper's figures plot.
type Curve struct {
	Name    string
	SeqTime float64
	Points  []Point
}

// Run produces the experiment's speedup curve over the given process
// counts, one cell at a time on the calling goroutine. Package sched runs
// the same cells concurrently with bounded parallelism; prefer it for
// multi-experiment sweeps.
func (e *Experiment) Run(ctx context.Context, procs []int) (*Curve, error) {
	seqRes, err := e.Baseline(ctx)
	if err != nil {
		return nil, err
	}
	c := &Curve{Name: e.Name, SeqTime: seqRes.Makespan}
	for _, n := range procs {
		res, err := e.Point(ctx, n)
		if err != nil {
			return nil, err
		}
		c.Points = append(c.Points, Point{
			Procs:   n,
			Time:    res.Makespan,
			Speedup: seqRes.Makespan / res.Makespan,
			Msgs:    res.Msgs,
			Bytes:   res.Bytes,
		})
	}
	return c, nil
}

// Efficiency returns speedup divided by process count for the i-th point.
func (c *Curve) Efficiency(i int) float64 {
	pt := c.Points[i]
	return pt.Speedup / float64(pt.Procs)
}

// SpeedupAt returns the speedup measured at exactly n processes, or 0 if
// the curve has no such point.
func (c *Curve) SpeedupAt(n int) float64 {
	for _, pt := range c.Points {
		if pt.Procs == n {
			return pt.Speedup
		}
	}
	return 0
}

// WriteTable renders one or more curves sharing the same process counts as
// an aligned text table with a "perfect" column, the textual equivalent of
// the paper's speedup plots.
func WriteTable(w io.Writer, curves ...*Curve) error {
	if len(curves) == 0 {
		return nil
	}
	base := curves[0]
	if _, err := fmt.Fprintf(w, "%8s %10s", "procs", "perfect"); err != nil {
		return err
	}
	for _, c := range curves {
		if _, err := fmt.Fprintf(w, " %16s", c.Name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, pt := range base.Points {
		if _, err := fmt.Fprintf(w, "%8d %10.2f", pt.Procs, float64(pt.Procs)); err != nil {
			return err
		}
		for _, c := range curves {
			var err error
			if i < len(c.Points) {
				_, err = fmt.Fprintf(w, " %16.2f", c.Points[i].Speedup)
			} else {
				_, err = fmt.Fprintf(w, " %16s", "-")
			}
			if err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// PowersOfTwo returns {1, 2, 4, ..., <=max}, the conventional sweep for
// speedup plots.
func PowersOfTwo(max int) []int {
	var out []int
	for n := 1; n <= max; n *= 2 {
		out = append(out, n)
	}
	return out
}
