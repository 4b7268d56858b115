// Command perfbench is the repository's benchmark: one command that runs
// a workload against the public entry points of the archetype
// reproduction, checks every output, and prints its metrics.
//
//	perfbench --workload sweep|halo|bulk|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the workload up several times (setup_s is the
// median), then runs passes over the workload's seeded op list for S
// seconds with tracing off and reports the end-to-end metrics. With
// --trace 1 it instead surveys every layer: one untraced and one traced
// pass of each workload plus micro-probes of the codec, rescache and
// world start, and it reports the per-layer metrics, the layer-sum check
// and a Chrome trace of the benchmark's spans; the survey's length is
// fixed (about 40 s on a 2-core host). The last line of standard
// output is always the JSON result; the lines before it are the
// human-readable report, host first.
//
// Workers of the dist and elastic backends re-execute this binary, so
// main diverts those children before parsing any flag.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "repro/arch/apps"
	"repro/internal/backend/dist"
	"repro/internal/elastic"
)

func main() {
	dist.MaybeWorker()
	elastic.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads is every workload the benchmark knows, in report order.
var workloads = []string{"sweep", "halo", "bulk", "serve"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is the benchmark's scratch directory (figure images, result
	// caches, traces), inside the checkout.
	dir string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&c.seed, "seed", 1, "seed for the op order and the serve request schedule")
	fs.Float64Var(&c.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer survey")
	c.dir = filepath.Join(".bench_build", "perfbench")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == c.workload
	}
	switch {
	case !known:
		return c, fmt.Errorf("unknown workload %q (have: %s)", c.workload, strings.Join(workloads, ", "))
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case c.seconds <= 0:
		return c, fmt.Errorf("--seconds must be positive, got %g", c.seconds)
	}
	c.trace = trace == 1
	return c, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := hostInfo(cfg.seed)
	fmt.Fprintf(stdout, "host: nproc=%v gomaxprocs=%v cpu=%q go=%v seed=%v\n",
		host["nproc"], host["gomaxprocs"], host["cpu"], host["go"], host["seed"])

	ctx := context.Background()
	var res result
	if cfg.trace {
		res, err = survey(ctx, cfg, host, stdout)
	} else {
		res, err = measure(ctx, cfg, stdout)
	}
	if err != nil {
		// A workload that cannot even be set up has no numbers to
		// report: fail without a result line.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for name := range res.Metrics {
		if err := checkMetricName(name); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostInfo records what every result names: core count, GOMAXPROCS, CPU
// model, Go version and seed.
func hostInfo(seed int64) map[string]any {
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"seed":       seed,
	}
}

// rssSampler samples the benchmark process's resident set every 10 ms
// while a timed window runs. The process's single all-time peak depends
// on where a garbage collection happens to fall against the largest
// allocation burst, so it scatters by tens of percent between runs; the
// median of the peaks of pass-long slices is the same memory cost,
// measured steadily.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB, one per tick
	times   []time.Time
}

const rssTick = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssTick)
		defer t.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				s.samples = append(s.samples, mb)
				s.times = append(s.times, time.Now())
			}
			select {
			case <-t.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median over slices of the peak
// resident set in each slice, in MB, and the slice count. A slice lasts
// one pass, and at least a second. A non-zero until drops the samples
// taken after it.
func (s *rssSampler) finish(pass time.Duration, until time.Time) (mb float64, slices int) {
	close(s.stop)
	<-s.done
	n := len(s.samples)
	if !until.IsZero() {
		n = sort.Search(n, func(i int) bool { return s.times[i].After(until) })
	}
	perSlice := int(max(pass, time.Second) / rssTick)
	var peaks []float64
	for i := 0; i < n; i += perSlice {
		slice := s.samples[i:min(i+perSlice, n)]
		peaks = append(peaks, sorted(slice)[len(slice)-1])
	}
	return median(peaks), len(peaks)
}

// rssMB reads the process's current resident set from /proc/self/statm.
func rssMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(blob))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", blob)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// ledger tallies one run's ops: attempts, failures with their first
// messages, and op durations by class.
type ledger struct {
	attempted, failed int
	errs              []string
	ops               map[string][]float64 // op class → seconds
	// ref times the reference kernel between ops of an untraced timed
	// window; nil elsewhere.
	ref *refClock
}

func newLedger() *ledger { return &ledger{ops: map[string][]float64{}} }

// record counts one op. A failed op counts against fail_ratio and keeps
// its duration out of the latency samples.
func (l *ledger) record(class string, secs float64, err error) {
	l.attempted++
	if err != nil {
		l.fail(err)
		return
	}
	l.ops[class] = append(l.ops[class], secs)
}

// fail counts a failure found after the op was recorded (a check run
// after the timed window).
func (l *ledger) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// gmeanTrimmed is the geometric mean over op classes of each class's
// trimmed mean op time: every kind of op (a figure, a spec on one
// backend, a warm or cold request) weighs the same, however long it
// takes.
func (l *ledger) gmeanTrimmed() float64 {
	if len(l.ops) == 0 {
		return 0
	}
	var logSum float64
	for _, xs := range l.ops {
		logSum += math.Log(trimmedMean(xs))
	}
	return math.Exp(logSum / float64(len(l.ops)))
}

// errReport prints the first failures.
func (l *ledger) errReport(w io.Writer) {
	for _, e := range l.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
}

// named is one line of the human-readable report: a metric particular to
// the workload, with its sample count.
type named struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

func printNamed(w io.Writer, workload string, rows []named) {
	fmt.Fprintf(w, "%s:\n", workload)
	for _, r := range rows {
		note := ""
		if r.note != "" {
			note = "  (" + r.note + ")"
		}
		fmt.Fprintf(w, "  %-26s %14.4f %-6s n=%d%s\n", r.name, r.value, r.unit, r.n, note)
	}
}

// tailRow reports the highest percentile, up to want, that has at least
// minBeyond samples beyond it, named after the percentile it really is.
func tailRow(prefix string, xs []float64, want float64, unit string, scale float64) (named, bool) {
	p, beyond, ok := tailPercentile(len(xs), want)
	if !ok {
		return named{}, false
	}
	return named{
		name:  fmt.Sprintf("%s_p%s", prefix, strings.TrimSuffix(strings.TrimSuffix(fmt.Sprintf("%.1f", p), "0"), ".")),
		value: percentile(xs, p) * scale,
		unit:  unit,
		n:     len(xs),
		note:  fmt.Sprintf("%d samples beyond", beyond),
	}, true
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
