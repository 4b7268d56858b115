package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/arch"
	"repro/internal/rescache"
	"repro/internal/serve"
)

// The serve workload is a closed loop of two clients (callers that wait
// for their reply, as archdemo -remote does), one connection each,
// against an in-process serve.Server on a loopback listener with a fresh
// result cache. About 85% of requests are warm repeats of a pre-filled
// spec set, 15% are cold novel sim specs, and 2% of the cold ones are
// traced and fetch their Chrome trace.
const (
	serveClients = 2
	warmShare    = 0.85
	tracedShare  = 0.02 // of the cold requests
	// serveBlock is the request count of one serve "pass": the pass time
	// is the wall time the two clients take to complete a block of the
	// schedule.
	serveBlock = 250
	// coldChecks bounds how many cold results are re-run directly through
	// arch.RunSpec after the timed window: a run makes thousands of cold
	// requests, and re-running all of them would triple the run.
	coldChecks = 48
)

// warmSpecs is the pre-filled set warm requests repeat: sim runs of
// several apps, each about 10 ms. A warm answer costs the same whatever
// the run behind it; runs this size make set-up time mostly compute, not
// the request round trips whose cost swings with thread placement from
// one process to the next.
var warmSpecs = func() []arch.Spec {
	var out []arch.Spec
	for _, p := range []int{2, 4} {
		for _, a := range []struct {
			app   string
			sizes []int
		}{
			{"mergesort", []int{1 << 16, 1 << 17, 1 << 18, 1 << 19}},
			{"quicksort", []int{1 << 16, 1 << 17, 1 << 18}},
			{"fft", []int{128, 256, 512}},
			{"skyline", []int{4000, 8000, 16000}},
			{"hull", []int{20000, 40000}},
			{"closest", []int{20000, 40000}},
		} {
			for _, n := range a.sizes {
				out = append(out, arch.Spec{App: a.app, Size: n, Procs: p, Backend: "sim"})
			}
		}
	}
	return out
}()

// coldSizes is the range cold sort sizes are drawn from without
// repetition: size k of a run is coldBase + (offset + k*coldStride) mod
// coldRange, distinct for k < coldRange because the stride is prime and
// does not divide the range.
const (
	coldBase   = 30000
	coldRange  = 40000
	coldStride = 104729
)

// request is one entry of the seeded request schedule.
type request struct {
	index int
	class string // warm, cold or traced
	spec  arch.Spec
}

// schedule hands out the seeded request sequence to both clients; the
// sequence depends only on the seed, not on which client takes a request.
type schedule struct {
	mu     sync.Mutex
	rng    *rand.Rand
	next   int
	cold   int
	offset int
}

func newSchedule(rng *rand.Rand) *schedule {
	return &schedule{rng: rng, offset: rng.Intn(coldRange)}
}

func (s *schedule) take() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := request{index: s.next}
	s.next++
	if s.rng.Float64() < warmShare {
		r.class = "warm"
		r.spec = warmSpecs[s.rng.Intn(len(warmSpecs))]
		return r
	}
	app := "mergesort"
	if s.rng.Intn(2) == 1 {
		app = "quicksort"
	}
	size := coldBase + (s.offset+s.cold*coldStride)%coldRange
	s.cold++
	r.class = "cold"
	r.spec = arch.Spec{App: app, Size: size, Procs: 2, Backend: "sim"}
	if s.rng.Float64() < tracedShare {
		r.class = "traced"
		r.spec.Trace = true
	}
	return r
}

// outcome is one finished request.
type outcome struct {
	request
	start, end time.Time
	// submitted is when Submit returned; running and done are when the
	// SSE feed first showed the job running and terminal (zero if the
	// feed never showed it), so queue time is running − submitted and
	// run time is done − running.
	submitted, running, done time.Time
	status                   serve.JobStatus
	traceBytes               int
	rejected                 bool
	err                      error
}

type serveWL struct {
	dir      string
	cacheDir string
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	clients  []*serve.Client
	expected map[string]serve.JobStatus // warm spec key → the pre-fill run's status

	sched    *schedule
	outcomes []outcome
	window   float64
}

func newServe(dir string) *serveWL { return &serveWL{dir: dir} }

func (w *serveWL) prepare(context.Context) error { return nil }

func (w *serveWL) rounds() int { return 3 }

// setup starts a fresh server (new cache directory, Workers = nproc, a
// loopback listener) and pre-fills the warm set through the clients.
// Each round replaces the previous round's server.
func (w *serveWL) setup(ctx context.Context) error {
	w.close()
	w.sched = nil
	dir, err := os.MkdirTemp(w.dir, "rescache-")
	if err != nil {
		return err
	}
	w.cacheDir = dir
	cache, err := rescache.Open(dir)
	if err != nil {
		return err
	}
	w.srv = serve.New(serve.Config{
		Workers: runtime.NumCPU(),
		Cache:   cache,
		Log:     log.New(io.Discard, "", 0),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.clients = nil
	for i := 0; i < serveClients; i++ {
		w.clients = append(w.clients, &serve.Client{Base: w.base, HTTP: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}})
	}
	w.expected = map[string]serve.JobStatus{}
	for _, sp := range warmSpecs {
		st, err := submitFollow(ctx, w.clients[0], sp)
		if err != nil {
			return fmt.Errorf("pre-fill %s %d: %w", sp.App, sp.Size, err)
		}
		if st.State != serve.StateDone || st.Report == nil {
			return fmt.Errorf("pre-fill %s %d: state %s: %s", sp.App, sp.Size, st.State, st.Error)
		}
		w.expected[st.ID] = st
	}
	return nil
}

// submitFollow submits sp and, unless the answer is already terminal,
// follows the job's SSE feed to its terminal status.
func submitFollow(ctx context.Context, c *serve.Client, sp arch.Spec) (serve.JobStatus, error) {
	st, err := c.Submit(ctx, sp)
	if err != nil || st.Terminal() {
		return st, err
	}
	return c.Follow(ctx, st.ID, nil)
}

// request runs one scheduled request end to end on client c.
func (w *serveWL) request(ctx context.Context, c *serve.Client, r request, tr *tracer) outcome {
	o := outcome{request: r}
	op := tr.newOp()
	root := tr.begin(op, -1, "other", r.class)
	o.start = time.Now()
	sub := tr.begin(op, root, "serve.submit", "Submit")
	st, err := c.Submit(ctx, r.spec)
	tr.end(sub)
	o.submitted = time.Now()
	if err == nil && !st.Terminal() {
		fol := tr.begin(op, root, "serve.follow", "Follow")
		folStart := tr.now()
		var runAt, doneAt int64 = -1, -1
		st, err = c.Follow(ctx, st.ID, func(js serve.JobStatus) {
			switch {
			case js.State == serve.StateRunning && o.running.IsZero():
				o.running = time.Now()
				runAt = tr.now()
			case js.Terminal():
				o.done = time.Now()
				doneAt = tr.now()
			}
		})
		tr.end(fol)
		if tr != nil && runAt >= 0 && doneAt >= runAt {
			tr.add(op, fol, "serve.queue", "queued", folStart, runAt)
			tr.add(op, fol, "serve.run", "running", runAt, doneAt)
		}
	}
	if err == nil && r.class == "traced" && st.State == serve.StateDone {
		ft := tr.begin(op, root, "obs.trace_fetch", "GET trace")
		o.traceBytes, err = fetchTrace(ctx, c, st.ID)
		tr.end(ft)
	}
	o.end = time.Now()
	tr.end(root)
	o.status = st
	o.err = err
	o.rejected = err != nil && strings.Contains(err.Error(), "429")
	return o
}

// fetchTrace fetches and parses a traced job's Chrome trace and returns
// its size.
func fetchTrace(ctx context.Context, c *serve.Client, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/runs/"+id+"/trace", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("trace %s: %s", id[:12], resp.Status)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &tr); err != nil {
		return 0, fmt.Errorf("trace %s: %w", id[:12], err)
	}
	if len(tr.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace %s has no events", id[:12])
	}
	return len(blob), nil
}

// check verifies one outcome: warm answers are done with the meters of
// the run that produced them; cold and traced ones are done (their
// meters are checked against a direct run in finish).
func (w *serveWL) check(o outcome) error {
	if o.err != nil {
		return fmt.Errorf("%s %s %d: %w", o.class, o.spec.App, o.spec.Size, o.err)
	}
	st := o.status
	if st.State != serve.StateDone || st.Report == nil {
		return fmt.Errorf("%s %s %d: state %s: %s", o.class, o.spec.App, o.spec.Size, st.State, st.Error)
	}
	if o.class == "warm" {
		want, ok := w.expected[st.ID]
		if !ok {
			return fmt.Errorf("warm %s %d: job %s is not a pre-filled job", o.spec.App, o.spec.Size, st.ID[:12])
		}
		if st.Summary != want.Summary || st.Report.Msgs != want.Report.Msgs || st.Report.Bytes != want.Report.Bytes {
			return fmt.Errorf("warm %s %d: answer differs from the run that produced it", o.spec.App, o.spec.Size)
		}
	}
	return nil
}

// measureFor runs both clients against the schedule for the given time.
// Later windows against the same server continue the same schedule, so
// cold sizes never repeat within a server's life.
func (w *serveWL) measureFor(ctx context.Context, seconds float64, rng *rand.Rand, tr *tracer) []outcome {
	if w.sched == nil {
		w.sched = newSchedule(rng)
	}
	sch := w.sched
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *serve.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := w.request(ctx, c, sch.take(), tr)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.window += time.Since(start).Seconds()
	return out
}

// blocks returns the wall time of each complete block of serveBlock
// consecutive schedule entries: last completion minus first start.
func blocks(out []outcome) []float64 {
	n := len(out) / serveBlock
	first := make([]time.Time, n)
	last := make([]time.Time, n)
	base := out[0].index // a window takes consecutive schedule entries
	for _, o := range out {
		base = min(base, o.index)
	}
	for _, o := range out {
		b := (o.index - base) / serveBlock
		if b >= n {
			continue
		}
		if first[b].IsZero() || o.start.Before(first[b]) {
			first[b] = o.start
		}
		if o.end.After(last[b]) {
			last[b] = o.end
		}
	}
	var secs []float64
	for b := 0; b < n; b++ {
		if !first[b].IsZero() {
			secs = append(secs, last[b].Sub(first[b]).Seconds())
		}
	}
	return secs
}

// serveMemMark is the request count up to which the serve workload's
// resident set is read: the job table keeps every job, so the process
// grows with the requests served. It is reached in about 5 s on a
// 2-vCPU host.
const serveMemMark = 10000

// memMark is when the serveMemMark-th request of the window completed,
// or zero if the window completed fewer.
func (w *serveWL) memMark() time.Time {
	if len(w.outcomes) < serveMemMark {
		return time.Time{}
	}
	return w.outcomes[serveMemMark-1].end
}

// serveSegment is how long both clients run between two samples of the
// reference kernel, which runs while they are stopped.
const serveSegment = 1.0 // seconds

// run measures in segments when the window is timed against the
// reference kernel, in one piece otherwise. A block never spans two
// segments, so no pass includes a reference sample.
func (w *serveWL) run(ctx context.Context, seconds float64, rng *rand.Rand, tr *tracer, l *ledger) ([]float64, error) {
	seg := seconds
	if l.ref != nil {
		seg = min(seconds, serveSegment)
	}
	w.outcomes, w.window = nil, 0
	var passes []float64
	t0 := time.Now()
	for len(w.outcomes) == 0 || time.Since(t0).Seconds() < seconds {
		out := w.measureFor(ctx, seg, rng, tr)
		if len(out) > 0 {
			passes = append(passes, blocks(out)...)
		}
		w.outcomes = append(w.outcomes, out...)
		l.ref.sample()
	}
	for _, o := range w.outcomes {
		l.record(o.class, o.end.Sub(o.start).Seconds(), w.check(o))
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("serve: %d requests, fewer than one block of %d", len(w.outcomes), serveBlock)
	}
	return passes, nil
}

// finish re-runs an evenly spread sample of the cold results through
// arch.RunSpec directly: the service's answer must carry the same
// summary and meters.
func (w *serveWL) finish(ctx context.Context, l *ledger) {
	var cold []outcome
	for _, o := range w.outcomes {
		if o.class != "warm" && o.err == nil && o.status.Report != nil {
			cold = append(cold, o)
		}
	}
	step := max(1, len(cold)/coldChecks)
	for i := 0; i < len(cold); i += step {
		o := cold[i]
		sp := o.spec
		sp.Trace = false
		sum, rep, err := arch.RunSpec(ctx, sp)
		switch {
		case err != nil:
			l.fail(fmt.Errorf("direct %s %d: %w", sp.App, sp.Size, err))
		case sum != o.status.Summary || rep.Msgs != o.status.Report.Msgs || rep.Bytes != o.status.Report.Bytes:
			l.fail(fmt.Errorf("cold %s %d: service answered %d msgs %d bytes, direct run %d msgs %d bytes",
				sp.App, sp.Size, o.status.Report.Msgs, o.status.Report.Bytes, rep.Msgs, rep.Bytes))
		}
	}
}

func (w *serveWL) named(l *ledger, passes []float64) []named {
	ms := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e3
		}
		return out
	}
	warm, cold, traced := ms(l.ops["warm"]), ms(l.ops["cold"]), ms(l.ops["traced"])
	rows := []named{
		{name: "warm_ms_p50", value: median(warm), unit: "ms", n: len(warm)},
	}
	if r, ok := tailRow("warm_ms", warm, 99, "ms", 1); ok {
		rows = append(rows, r)
	}
	rows = append(rows, named{name: "cold_ms_p50", value: median(cold), unit: "ms", n: len(cold)})
	if r, ok := tailRow("cold_ms", cold, 95, "ms", 1); ok {
		rows = append(rows, r)
	}
	rows = append(rows,
		named{name: "traced_ms_p50", value: median(traced), unit: "ms", n: len(traced)},
		named{name: "req_per_s", value: float64(len(w.outcomes)) / w.window, unit: "1/s", n: len(w.outcomes)},
	)
	return rows
}

// promValues reads the named counters from the service's /metrics.
func promValues(ctx context.Context, base string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics %s: %w", name, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}

// close shuts the server down, waits for its goroutines, and removes the
// cache directory.
func (w *serveWL) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Both drain what is in flight; past the deadline the jobs are
		// cancelled, which is all a benchmark tearing down needs.
		_ = w.hs.Shutdown(ctx)
		_ = w.srv.Shutdown(ctx)
		if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		for _, c := range w.clients {
			c.HTTP.CloseIdleConnections()
		}
		w.hs = nil
	}
	if w.cacheDir != "" {
		if err := os.RemoveAll(w.cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		w.cacheDir = ""
	}
}
