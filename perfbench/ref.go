package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// On a host that is a few vCPUs of a shared machine, CPU speed drifts by
// 20–40% over minutes with the neighbours' load, while one run of 20 s
// sees only one stretch of that drift. The end-to-end times are therefore
// reported in units of a fixed reference kernel timed between the
// workload's ops in the same window: the kernel slows with the host, not
// with the program, so the ratio moves only when the program's own cost
// does. The raw seconds are printed above the JSON line beside it. Work
// the program leaves running between its ops would slow the kernel too
// and so partly hide in the ratio; setup_s and the raw seconds still
// show it.

const (
	// refLen is the length of the slice each reference goroutine sorts:
	// 2 MiB of float64, past the per-core caches, like the workloads'
	// working sets.
	refLen = 1 << 18
	// refEvery is the least time between two reference samples; a sample
	// takes about 40 ms on a 2-vCPU Xeon, so the kernel costs under a
	// tenth of the window.
	refEvery = 500 * time.Millisecond
)

// refClock times the reference kernel at a steady cadence through a
// timed window. A nil *refClock does nothing, so traced and set-up runs
// pass none.
type refClock struct {
	input   []float64 // the fixed, unsorted input every sample copies
	bufs    [][]float64
	last    time.Time
	samples []float64 // seconds per kernel run
}

func newRefClock() *refClock {
	r := rand.New(rand.NewSource(1))
	c := &refClock{input: make([]float64, refLen)}
	for i := range c.input {
		c.input[i] = r.Float64()
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.bufs = append(c.bufs, make([]float64, refLen))
	}
	return c
}

// sample runs the kernel once and records its wall time: every
// GOMAXPROCS goroutine copies the fixed input and sorts it, so the
// kernel loads the same cores the workload does.
func (c *refClock) sample() {
	if c == nil {
		return
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, buf := range c.bufs {
		wg.Add(1)
		go func(buf []float64) {
			defer wg.Done()
			copy(buf, c.input)
			sort.Float64s(buf)
		}(buf)
	}
	wg.Wait()
	c.samples = append(c.samples, time.Since(t0).Seconds())
	c.last = time.Now()
}

// tick samples the kernel if refEvery has passed since the last sample;
// workloads call it between ops.
func (c *refClock) tick() {
	if c != nil && time.Since(c.last) >= refEvery {
		c.sample()
	}
}

// warm runs a few untimed samples so the window's first ones do not pay
// for cold caches and page faults, then starts the cadence.
func (c *refClock) warm() {
	for i := 0; i < 3; i++ {
		c.sample()
	}
	c.samples = c.samples[:0]
}

// unit is the median kernel time in seconds (0 without samples).
func (c *refClock) unit() float64 { return median(c.samples) }
