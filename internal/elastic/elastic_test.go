package elastic_test

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/faultinject"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/obs"
	"repro/internal/onedeep"
	"repro/internal/poisson"
	"repro/internal/sortapp"
	"repro/internal/spmd"
)

// TestMain lets this binary serve as its own worker for both self-spawn
// backends (the spawn-mode smoke test re-executes it).
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	elastic.MaybeWorker()
	os.Exit(m.Run())
}

func TestRegistered(t *testing.T) {
	r, ok := backend.ByName("elastic")
	if !ok {
		t.Fatal("elastic backend not registered")
	}
	if r.Name() != "elastic" || r.Virtual() {
		t.Errorf("elastic registered as name=%q virtual=%v, want non-virtual \"elastic\"", r.Name(), r.Virtual())
	}
}

// parityCase mirrors internal/backend's cross-backend parity programs:
// deterministic archetype apps whose results and meters must be
// bit-identical across backends.
type parityCase struct {
	name string
	prog func(np int) (core.Program, func() any)
}

func parityCases() []parityCase {
	return []parityCase{
		{
			name: "sorting/one-deep-mergesort",
			prog: func(np int) (core.Program, func() any) {
				data := sortapp.RandomInts(20000, 42)
				blocks := sortapp.BlockDistribute(data, np)
				spec := sortapp.OneDeepMergesort(onedeep.Centralized)
				outs := make([][]int32, np)
				return func(p *spmd.Proc) {
					outs[p.Rank()] = onedeep.RunSPMD(p, spec, blocks[p.Rank()])
				}, func() any { return outs }
			},
		},
		{
			name: "fft/2d-forward",
			prog: func(np int) (core.Program, func() any) {
				const n = 32
				var out []complex128
				return func(p *spmd.Proc) {
					g := meshspectral.New2D[complex128](p, n, n, meshspectral.Rows(p.N()), 0)
					g.Fill(func(i, j int) complex128 {
						return complex(math.Sin(float64(i)*0.11), math.Cos(float64(j)*0.23))
					})
					f := fft.TwoDSPMD(p, g, false)
					full := meshspectral.GatherGrid(f, 0)
					if p.Rank() == 0 {
						out = full.Data
					}
				}, func() any { return out }
			},
		},
		{
			name: "poisson/jacobi",
			prog: func(np int) (core.Program, func() any) {
				pr := poisson.Manufactured(25, 25, 1e-6, 2000)
				var grid []float64
				var iters int
				return func(p *spmd.Proc) {
						g, r := poisson.SolveSPMD(p, pr, meshspectral.NearSquare(p.N()))
						full := meshspectral.GatherGrid(g, 0)
						if p.Rank() == 0 {
							grid = full.Data
							iters = r.Iterations
						}
					}, func() any {
						return struct {
							Grid  []float64
							Iters int
						}{grid, iters}
					}
			},
		},
	}
}

// TestKillRecoveryParity is the acceptance contract of the elastic
// backend: a world that loses a worker mid-run — killed by the fault
// injector at a deterministic rank operation — completes with results and
// message/byte meters bit-identical to an uninterrupted run. Two distinct
// kill epochs per app, hitting different ranks, exercise recovery at
// different phases of each program; the sim backend supplies the
// uninterrupted reference, and one clean elastic run per app proves the
// substrate itself matches it before any faults are injected. A dropped
// link is the third fault: the connection is severed without declaring
// the worker dead, so the link's reader must detect the loss.
func TestKillRecoveryParity(t *testing.T) {
	const np = 4
	model := machine.IBMSP()
	kills := []struct {
		rank, epoch int
		action      faultinject.Action
	}{
		{rank: 1, epoch: 0, action: faultinject.Kill}, // a leaf rank's first completed operation
		{rank: 0, epoch: 2, action: faultinject.Kill}, // the root rank, several operations in
		{rank: 1, epoch: 0, action: faultinject.Drop}, // the leaf's link severed instead
	}
	for _, tc := range parityCases() {
		t.Run(tc.name, func(t *testing.T) {
			simProg, simSnap := tc.prog(np)
			simRes, err := core.Run(context.Background(), backend.Sim(), np, model, simProg)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			want := simSnap()

			runOnce := func(inj *faultinject.Injector) (any, *spmd.Result, elastic.Stats) {
				t.Helper()
				var stats elastic.Stats
				opts := []elastic.Option{
					elastic.WithLocalWorkers(false),
					elastic.WithWorkerCount(2),
					// Generous heartbeat: injected kills declare death
					// immediately, so detection latency is irrelevant here,
					// and a tight cadence could mis-declare a worker slow
					// under the race detector.
					elastic.WithHeartbeat(200*time.Millisecond, 5),
					elastic.WithObserver(func(s elastic.Stats) { stats = s }),
				}
				if inj != nil {
					opts = append(opts, elastic.WithInjector(inj))
				}
				prog, snap := tc.prog(np)
				res, err := core.Run(context.Background(), elastic.New(opts...), np, model, prog)
				if err != nil {
					t.Fatalf("elastic: %v", err)
				}
				return snap(), res, stats
			}

			got, res, stats := runOnce(nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatal("uninterrupted elastic results differ from sim")
			}
			if res.Msgs != simRes.Msgs || res.Bytes != simRes.Bytes {
				t.Fatalf("uninterrupted elastic meters %d msgs/%d bytes, sim %d/%d",
					res.Msgs, res.Bytes, simRes.Msgs, simRes.Bytes)
			}
			if stats.Restarts != 0 || stats.DeclaredDead != 0 {
				t.Fatalf("uninterrupted run reported recovery activity: %+v", stats)
			}

			for _, k := range kills {
				inj := faultinject.New(faultinject.Rule{
					Point:  "elastic.rank.op",
					Rank:   k.rank,
					Epoch:  k.epoch,
					Action: k.action,
				})
				got, res, stats := runOnce(inj)
				if n := inj.Fired("elastic.rank.op"); n != 1 {
					t.Fatalf("%v rank=%d epoch=%d: injector fired %d times, want 1", k.action, k.rank, k.epoch, n)
				}
				if stats.DeclaredDead < 1 || stats.Restarts < 1 {
					t.Fatalf("%v rank=%d epoch=%d: no recovery happened: %+v", k.action, k.rank, k.epoch, stats)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%v rank=%d epoch=%d: recovered results differ from uninterrupted run", k.action, k.rank, k.epoch)
				}
				if res.Msgs != simRes.Msgs || res.Bytes != simRes.Bytes {
					t.Fatalf("%v rank=%d epoch=%d: meters %d msgs/%d bytes, want %d/%d (suppressed resends must not be re-metered)",
						k.action, k.rank, k.epoch, res.Msgs, res.Bytes, simRes.Msgs, simRes.Bytes)
				}
			}
		})
	}
}

// ringProg builds a deterministic two-round ring exchange: every rank has
// four operations, and the expected output is computable in closed form.
func ringProg(np int) (core.Program, func() []int) {
	outs := make([]int, np)
	return func(p *spmd.Proc) {
		r, n := p.Rank(), p.N()
		acc := r + 1
		for round := 0; round < 2; round++ {
			p.Send((r+1)%n, round, acc)
			acc += p.Recv((r+n-1)%n, round).(int)
		}
		outs[r] = acc
	}, func() []int { return outs }
}

func wantRing(np int) []int {
	want := make([]int, np)
	for r := 0; r < np; r++ {
		prev := (r + np - 1) % np
		prev2 := (r + np - 2) % np
		// round 1 adds prev's start; round 2 adds prev's round-1 sum.
		want[r] = (r + 1) + (prev + 1) + ((prev + 1) + (prev2 + 1))
	}
	return want
}

// TestJoinMidRunPicksUpRescheduledRanks kills the world's only worker
// mid-run, leaving every rank queued with zero live workers; the starve
// hook then brings up a fresh worker via Join — exactly a worker joining
// mid-run — which must pull the queued rank tasks so the world completes.
func TestJoinMidRunPicksUpRescheduledRanks(t *testing.T) {
	const np = 4
	inj := faultinject.New(faultinject.Rule{
		Point:  "elastic.rank.op",
		Rank:   0,
		Epoch:  1,
		Action: faultinject.Kill,
	})
	var stats elastic.Stats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := elastic.New(
		elastic.WithLocalWorkers(false),
		elastic.WithWorkerCount(1),
		elastic.WithHeartbeat(50*time.Millisecond, 3),
		elastic.WithInjector(inj),
		elastic.WithStarveHook(func(addr, token string) {
			go elastic.Join(ctx, addr, token) //nolint:errcheck // the world's completion is the assertion
		}),
		elastic.WithObserver(func(s elastic.Stats) { stats = s }),
	)
	prog, snap := ringProg(np)
	res, err := core.Run(context.Background(), r, np, machine.IBMSP(), prog)
	if err != nil {
		t.Fatalf("elastic run with mid-run join: %v", err)
	}
	if got, want := snap(), wantRing(np); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring results = %v, want %v", got, want)
	}
	if res.Msgs != int64(2*np) {
		t.Errorf("meters = %d msgs, want %d (replayed sends must not re-meter)", res.Msgs, 2*np)
	}
	if inj.Fired("elastic.rank.op") != 1 {
		t.Fatalf("kill never fired (%d)", inj.Fired("elastic.rank.op"))
	}
	if stats.Restarts < 1 {
		t.Errorf("stats.Restarts = %d, want >= 1", stats.Restarts)
	}
	if stats.JoinPickups < 1 {
		t.Errorf("stats.JoinPickups = %d, want >= 1: the joining worker never picked up a rescheduled rank task", stats.JoinPickups)
	}
	if stats.Workers < 2 {
		t.Errorf("stats.Workers = %d, want >= 2 (starting pool + mid-run joiner)", stats.Workers)
	}
}

// TestRestartBudgetExhausted points the injector at every operation of
// every rank: each attempt's host dies at its first completed operation,
// so recovery can never converge. The per-rank restart budget must turn
// that livelock into a clean error. The reconnecting local worker is what
// keeps the kills coming — each rejoin is a fresh lease to kill — so this
// test also proves worker reconnect with backoff works.
func TestRestartBudgetExhausted(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{
		Point:  "elastic.rank.op",
		Rank:   faultinject.AnyRank,
		Epoch:  faultinject.AnyEpoch,
		Count:  1000,
		Action: faultinject.Kill,
	})
	r := elastic.New(
		elastic.WithLocalWorkers(true),
		elastic.WithWorkerCount(1),
		elastic.WithHeartbeat(50*time.Millisecond, 3),
		elastic.WithRecoveryBudget(2, 30*time.Second),
		elastic.WithInjector(inj),
	)
	prog, _ := ringProg(2)
	_, err := core.Run(context.Background(), r, 2, machine.IBMSP(), prog)
	if err == nil {
		t.Fatal("run with a kill-everything injector succeeded, want restart-budget error")
	}
	if !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("error = %v, want restart-budget exhaustion", err)
	}
	// The error must say why the host died, not only that it did.
	if !strings.Contains(err.Error(), "killed by fault injection") {
		t.Fatalf("error = %v, want the host's cause of death", err)
	}
	if inj.Fired("elastic.rank.op") < 3 {
		t.Errorf("injector fired %d times, want >= 3 (budget is 2 restarts)", inj.Fired("elastic.rank.op"))
	}
}

// TestCancellationMidRun cancels a world whose rank 0 is blocked in a
// receive that can never be satisfied: Run must return ctx.Err() promptly
// and tear the worker pool down (Run does not return until teardown —
// including reaping local workers, link readers and the heartbeat —
// completes), leaving no goroutine of the world behind.
func TestCancellationMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	r := elastic.New(
		elastic.WithLocalWorkers(true),
		elastic.WithWorkerCount(2),
	)
	prog := func(p *spmd.Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 1) // rank 1 never sends
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := core.Run(ctx, r, 2, machine.IBMSP(), prog)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt", d)
	}
	// The accept loop exits on its own once the listener closes; give the
	// runtime a moment to retire it.
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for ; n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines after the run, %d before: the world leaked goroutines", n, before)
	}
}

// TestSpawnMode runs the registry-default configuration: the coordinator
// re-executes this test binary as worker processes (TestMain calls
// elastic.MaybeWorker), the same path archdemo and archbench users get.
func TestSpawnMode(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const np = 2
	prog, snap := ringProg(np)
	res, err := core.Run(context.Background(), elastic.New(), np, machine.IBMSP(), prog)
	if err != nil {
		t.Fatalf("spawn-mode elastic run: %v", err)
	}
	if got, want := snap(), wantRing(np); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring results = %v, want %v", got, want)
	}
	if res.Msgs != int64(2*np) {
		t.Errorf("meters = %d msgs, want %d", res.Msgs, 2*np)
	}
}

// TestKillRecoveryTrace pins the flight recorder's view of a recovery:
// an injected kill must leave a causally ordered event chain — the fault
// fires, the host worker is declared dead, the orphaned rank is
// re-leased, and the new attempt replays its logged receives — and the
// replayed attempt's re-executed sends must surface as resend-suppressed
// events (the wire-level proof that recovery does not re-meter).
func TestKillRecoveryTrace(t *testing.T) {
	const np = 4
	model := machine.IBMSP()
	// The poisson workload from the parity table: killing rank 0 a few
	// operations in guarantees its log holds both sends (suppressed on
	// replay) and receives (replayed from the log).
	tc := parityCases()[2]
	inj := faultinject.New(faultinject.Rule{
		Point:  "elastic.rank.op",
		Rank:   0,
		Epoch:  4,
		Action: faultinject.Kill,
	})
	col := obs.NewCollector()
	// The recovery events fire within the first few operations; the
	// default drop-oldest ring would discard them under this workload's
	// tens of thousands of sends, so give the rings room for everything.
	col.RingSize = 1 << 18
	ctx := obs.NewContext(context.Background(), col)
	prog, _ := tc.prog(np)
	_, err := core.Run(ctx, elastic.New(
		elastic.WithLocalWorkers(false),
		elastic.WithWorkerCount(2),
		elastic.WithHeartbeat(200*time.Millisecond, 5),
		elastic.WithInjector(inj),
	), np, model, prog)
	if err != nil {
		t.Fatalf("elastic: %v", err)
	}
	if n := inj.Fired("elastic.rank.op"); n != 1 {
		t.Fatalf("injector fired %d times, want 1", n)
	}
	if s := inj.Stats(); s.Total != 1 || s.ByPoint["elastic.rank.op"] != 1 {
		t.Fatalf("injector stats = %+v, want one elastic.rank.op firing", s)
	}

	rec := col.Last()
	if rec == nil {
		t.Fatal("no recorder registered: the collector context did not reach the transport")
	}
	// AllEvents merges the rank rings and the system ring sorted by
	// timestamp, so first-occurrence scan order is causal order.
	var tFault, tDead, tRelease, tReplay int64 = -1, -1, -1, -1
	suppressed := 0
	for _, e := range rec.AllEvents() {
		switch e.Kind {
		case obs.KindFault:
			if tFault < 0 {
				tFault = e.T
			}
		case obs.KindDeclaredDead:
			if tDead < 0 {
				tDead = e.T
			}
		case obs.KindLease:
			if tDead >= 0 && tRelease < 0 {
				tRelease = e.T
			}
		case obs.KindReplay:
			if tReplay < 0 {
				tReplay = e.T
			}
		case obs.KindResendSuppressed:
			suppressed++
		}
	}
	switch {
	case tFault < 0:
		t.Fatal("no fault event: the injected kill was not recorded")
	case tDead < 0:
		t.Fatal("no declared-dead event")
	case tRelease < 0:
		t.Fatal("no re-lease after declared-dead")
	case tReplay < 0:
		t.Fatal("no replay event: the restarted attempt did not replay its log")
	case suppressed == 0:
		t.Fatal("no resend-suppressed events: replayed sends were not suppressed")
	}
	if !(tFault <= tDead && tDead <= tRelease && tRelease <= tReplay) {
		t.Fatalf("events out of causal order: fault=%d declared-dead=%d re-lease=%d replay=%d",
			tFault, tDead, tRelease, tReplay)
	}
}
