package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tseries/internal/sim"
)

// maxStoredSpans bounds the spans kept for the trace-event file. Every
// span still feeds the per-name aggregates once the store is full.
const maxStoredSpans = 200_000

// span is one timed call from the benchmark into a layer's public
// function: host start and end (since the recorder's epoch), simulated
// start and end, the span that caused it and the run (repetition) it
// belongs to.
type span struct {
	id                 int64
	parent             *span
	run, tid           int
	name               string
	hostStart, hostEnd time.Duration
	simStart, simEnd   sim.Time
	childHost          time.Duration // timeline children's host time, under recorder.mu
	self               time.Duration // set by end
}

func (sp *span) parentID() int64 {
	if sp.parent == nil {
		return 0
	}
	return sp.parent.id
}

// spanAgg accumulates every finished span of one name. Child processes
// report theirs as JSON.
type spanAgg struct {
	Count int64
	Host  time.Duration // total host duration
	Self  time.Duration // timeline host duration not covered by child spans
	Sim   sim.Duration  // total simulated duration
}

// Self time is attributed along one timeline: the host side (tid -1) and
// simulated node 0 (tid 0), whose spans never overlap one another. Other
// nodes' spans run concurrently with node 0's and with each other, and
// a span around a call that parks its process also covers the host time
// the kernel spends on other processes meanwhile; summing them would
// count the same host time many times over. They are still recorded,
// aggregated and written to the trace file.

// recorder collects spans from any goroutine. A nil *recorder records
// nothing, so untraced runs pass nil and pay one nil check per call.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	next    int64
	run     int
	stored  []span
	dropped int64
	agg     map[string]*spanAgg
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), agg: map[string]*spanAgg{}}
}

// setRun tags the spans started from now on with run id r.
func (r *recorder) setRun(run int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = run
	r.mu.Unlock()
}

// start opens a span under parent (nil for none) and returns it; nil
// when r is nil. Only the goroutine that started a span touches it
// until end.
func (r *recorder) start(name string, parent *span, tid int, now sim.Time) *span {
	if r == nil {
		return nil
	}
	sp := &span{parent: parent, tid: tid, name: name, hostStart: time.Since(r.epoch), simStart: now}
	r.mu.Lock()
	r.next++
	sp.id, sp.run = r.next, r.run
	r.mu.Unlock()
	return sp
}

// end closes sp, charging its duration to its parent's children.
func (r *recorder) end(sp *span, now sim.Time) { r.endAs(sp, "", now) }

// endAs closes sp under a new name when name is not empty: a call whose
// layer work is only known once it returns (a checkpoint that was or
// was not due) is named by its outcome.
func (r *recorder) endAs(sp *span, name string, now sim.Time) {
	if r == nil || sp == nil {
		return
	}
	sp.hostEnd, sp.simEnd = time.Since(r.epoch), now
	if name != "" {
		sp.name = name
	}
	dur := sp.hostEnd - sp.hostStart
	r.mu.Lock()
	defer r.mu.Unlock()
	sp.self = max(dur-sp.childHost, 0)
	if sp.parent != nil && sp.tid <= 0 {
		sp.parent.childHost += dur
	}
	a := r.agg[sp.name]
	if a == nil {
		a = &spanAgg{}
		r.agg[sp.name] = a
	}
	a.Count++
	a.Host += dur
	if sp.tid <= 0 {
		a.Self += sp.self
	}
	a.Sim += sim.Duration(sp.simEnd - sp.simStart)
	if len(r.stored) < maxStoredSpans {
		r.stored = append(r.stored, *sp)
	} else {
		r.dropped++
	}
}

// stat returns the aggregate of spans named name (zero if none).
func (r *recorder) stat(name string) spanAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// totals copies the per-name aggregates.
func (r *recorder) totals() map[string]spanAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]spanAgg{}
	for name, a := range r.agg {
		out[name] = *a
	}
	return out
}

// merge adds a child's aggregates to r's.
func (r *recorder) merge(totals map[string]spanAgg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, t := range totals {
		a := r.agg[name]
		if a == nil {
			a = &spanAgg{}
			r.agg[name] = a
		}
		a.Count += t.Count
		a.Host += t.Host
		a.Self += t.Self
		a.Sim += t.Sim
	}
}

// meanHost is the mean host duration of spans named name, in unit.
func (r *recorder) meanHost(name string, unit time.Duration) float64 {
	a := r.stat(name)
	if a.Count == 0 {
		return 0
	}
	return float64(a.Host) / float64(a.Count) / float64(unit)
}

// timelineSelf returns the self time of every span name along the
// timeline (see spanAgg), largest first.
func (r *recorder) timelineSelf() []nameTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []nameTime
	for name, a := range r.agg {
		if a.Self > 0 {
			out = append(out, nameTime{name, a.Self})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].d > out[j].d })
	return out
}

type nameTime struct {
	name string
	d    time.Duration
}

// traceEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing load a file of them.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata"`
}

// write stores the recorded spans as trace-event JSON at path, one
// Perfetto process per run and one thread per simulated node.
func (r *recorder) write(path string, meta map[string]any) error {
	r.mu.Lock()
	spans := append([]span(nil), r.stored...)
	dropped := r.dropped
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].hostStart < spans[j].hostStart })
	f := traceFile{DisplayTimeUnit: "ms", Metadata: map[string]any{"dropped_spans": dropped}}
	for k, v := range meta {
		f.Metadata[k] = v
	}
	f.TraceEvents = make([]traceEvent, 0, len(spans))
	for _, sp := range spans {
		layer, _, _ := strings.Cut(sp.name, ".")
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: sp.name, Cat: layer, Ph: "X",
			Ts:  float64(sp.hostStart) / float64(time.Microsecond),
			Dur: float64(sp.hostEnd-sp.hostStart) / float64(time.Microsecond),
			Pid: sp.run, Tid: sp.tid,
			Args: map[string]any{
				"id": sp.id, "parent": sp.parentID(), "run": sp.run,
				"sim_start_ps": int64(sp.simStart), "sim_end_ps": int64(sp.simEnd),
				"self_us": float64(sp.self) / float64(time.Microsecond),
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
