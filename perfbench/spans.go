package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (or imported from the program's own flight recorder). Spans
// of one op share Op; the op's root span has Parent -1.
type span struct {
	Op     int
	ID     int
	Parent int
	Layer  string
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer is off: every method is a no-op, so untraced runs pay
// one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
	// groups names the workload each op belongs to, for the report.
	groups map[int]string
	cur    string
	// dropped counts events and whole runs the program's recorder lost;
	// the traced numbers count only when it is 0.
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), groups: map[int]string{}} }

// setGroup names the workload the following ops belong to.
func (t *tracer) setGroup(name string) {
	t.mu.Lock()
	t.cur = name
	t.mu.Unlock()
}

func (t *tracer) group(op int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.groups[op]
}

// countDropped adds what col's recorders lost to the tracer's count.
func (t *tracer) countDropped(col *obs.Collector) {
	n := int64(col.DroppedRuns())
	for _, rec := range col.Runs() {
		for r := 0; r < rec.N(); r++ {
			_, d := rec.Events(r)
			n += d
		}
		_, d := rec.SysEvents()
		n += d
	}
	t.mu.Lock()
	t.dropped += n
	t.mu.Unlock()
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newOp allocates an op id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.groups[t.ops] = t.cur
	return t.ops
}

// add records a finished span and returns its id.
func (t *tracer) add(op, parent int, layer, name string, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: end})
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(op, parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	return t.add(op, parent, layer, name, t.now(), -1)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// collector returns a flight-recorder collector for one traced call and
// the tracer time of its epoch, so recorder timestamps map onto the
// tracer's timeline. Rings are sized so a poisson run's 9k sends and
// receives per rank are all kept: obs.dropped must stay 0.
func (t *tracer) collector() (*obs.Collector, int64) {
	col := obs.NewCollector()
	off := t.now() - col.Now()
	col.RingSize = 1 << 16
	return col, off
}

// addWorld imports one world's recorder as spans under parent: the
// world from start to finish, and inside it rank 0's sends (layer
// <backend>.comm) and receives (<backend>.blocked). Rank 0's time not
// spent in either is the world span's own self time: compute plus start
// and teardown gaps. Events on the simulator carry virtual time and are
// not imported.
func (t *tracer) addWorld(op, parent int, backend string, rec *obs.Recorder, off int64) {
	if t == nil || rec == nil {
		return
	}
	sys, _ := rec.SysEvents()
	start, finish := int64(-1), int64(-1)
	for _, e := range sys {
		switch e.Kind {
		case obs.KindStart:
			start = e.T
		case obs.KindFinish:
			finish = e.T
		}
	}
	if start < 0 || finish < start {
		return
	}
	world := t.add(op, parent, backend+".world", rec.Label(), off+start, off+finish)
	ev, _ := rec.Events(0)
	for _, e := range ev {
		if e.Dur <= 0 {
			continue
		}
		switch e.Kind {
		case obs.KindSend:
			t.add(op, world, backend+".comm", "send", off+e.T, off+e.T+e.Dur)
		case obs.KindRecv, obs.KindRecvAny:
			t.add(op, world, backend+".blocked", "recv", off+e.T, off+e.T+e.Dur)
		}
	}
}

// addCells imports a collector's sched cells as spans under parent
// (layer sched.cell, one per executed cell) and returns each cell's
// queue wait: enqueue to execute, pairing each execute with the oldest
// unmatched enqueue of the same cell index.
func (t *tracer) addCells(op, parent int, col *obs.Collector, off int64) (waits []float64, busy int64) {
	pending := map[int32][]int64{}
	sys := col.SysEvents()
	sort.SliceStable(sys, func(i, j int) bool { return sys[i].T < sys[j].T })
	for _, e := range sys {
		switch e.Kind {
		case obs.KindEnqueue:
			pending[e.Peer] = append(pending[e.Peer], e.T)
		case obs.KindExecute:
			if q := pending[e.Peer]; len(q) > 0 {
				waits = append(waits, float64(e.T-q[0])/1e6)
				pending[e.Peer] = q[1:]
			}
			busy += e.Dur
			t.add(op, parent, "sched.cell", "cell", off+e.T, off+e.T+e.Dur)
		}
	}
	return waits, busy
}

// layerSumTolerance is how far an op's layer times plus its other time
// may differ from its wall time before the layer-sum check fails: 1% of
// the op, or 50 µs for ops too short for 1% to cover clock alignment
// between the benchmark and the program's recorder.
func layerSumTolerance(wall int64) int64 {
	return max(wall/100, 50_000)
}

// opLayers is one op's wall time split by layer.
type opLayers struct {
	Op     int
	Wall   int64
	Layers map[string]int64 // includes the root layer ("other")
}

// sum returns the op's layer times added up.
func (o opLayers) sum() int64 {
	var s int64
	for _, v := range o.Layers {
		s += v
	}
	return s
}

// attribute splits an op's spans into layer self times: every instant
// covered by a span goes to the layer of the deepest span covering it
// (overlapping spans at one depth, such as concurrent sched cells,
// count that instant once). The root span's own layer gets the time no
// child covers, which the report calls "other". When every span lies
// inside its op's root the layer times add up to the root's wall time
// exactly; a span outside it (a clock misaligned between benchmark and
// recorder, a span attached to the wrong op) makes them exceed it.
func attribute(spans []span) (opLayers, error) {
	if len(spans) == 0 {
		return opLayers{}, fmt.Errorf("op with no spans")
	}
	depth := make(map[int]int, len(spans))
	var root *span
	type edge struct {
		t     int64
		delta int
		depth int
		layer string
	}
	edges := make([]edge, 0, 2*len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return opLayers{}, fmt.Errorf("op %d: span %s/%s never ended", s.Op, s.Layer, s.Name)
		}
		if s.Parent < 0 {
			if root != nil {
				return opLayers{}, fmt.Errorf("op %d: two root spans", s.Op)
			}
			root = s
			depth[s.ID] = 0
		} else {
			d, ok := depth[s.Parent]
			if !ok {
				return opLayers{}, fmt.Errorf("op %d: span %s/%s has a parent outside the op", s.Op, s.Layer, s.Name)
			}
			depth[s.ID] = d + 1
		}
		edges = append(edges, edge{s.Start, +1, depth[s.ID], s.Layer}, edge{s.End, -1, depth[s.ID], s.Layer})
	}
	if root == nil {
		return opLayers{}, fmt.Errorf("op %d: no root span", spans[0].Op)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	var active []map[string]int
	out := opLayers{Op: root.Op, Wall: root.End - root.Start, Layers: map[string]int64{}}
	for i, e := range edges {
		for len(active) <= e.depth {
			active = append(active, map[string]int{})
		}
		active[e.depth][e.layer] += e.delta
		if active[e.depth][e.layer] == 0 {
			delete(active[e.depth], e.layer)
		}
		if i+1 == len(edges) {
			break
		}
		dt := edges[i+1].t - e.t
		if dt == 0 {
			continue
		}
		for d := len(active) - 1; d >= 0; d-- {
			if len(active[d]) == 0 {
				continue
			}
			out.Layers[firstKey(active[d])] += dt
			break
		}
	}
	return out, nil
}

// firstKey returns the smallest key, so an instant covered by two layers
// at one depth is always given to the same one.
func firstKey(m map[string]int) string {
	first := ""
	for k := range m {
		if first == "" || k < first {
			first = k
		}
	}
	return first
}

// layerSum splits every op into layers and checks each op's sum against
// its wall time. It returns the per-op splits and the first breach.
func (t *tracer) layerSum() ([]opLayers, error) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	byOp := map[int][]span{}
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	t.mu.Unlock()
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	var out []opLayers
	for _, op := range ops {
		ol, err := attribute(byOp[op])
		if err != nil {
			return out, err
		}
		if diff := ol.sum() - ol.Wall; diff > layerSumTolerance(ol.Wall) || -diff > layerSumTolerance(ol.Wall) {
			return out, fmt.Errorf("layer-sum check: op %d layers add up to %.3f ms, wall time %.3f ms (tolerance %.3f ms)",
				op, float64(ol.sum())/1e6, float64(ol.Wall)/1e6, float64(layerSumTolerance(ol.Wall))/1e6)
		}
		out = append(out, ol)
	}
	return out, nil
}

// writeChrome writes every span as Chrome trace-event JSON (one track
// per op), loadable in ui.perfetto.dev.
func (t *tracer) writeChrome(path string, host map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Cat: s.Layer, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Op, Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": host})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
