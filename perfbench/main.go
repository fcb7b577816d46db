// Command perfbench is the repository's benchmark: it runs one workload
// (ckpt_recovery, lattice_12cube or tsimd_mix) from a seed for a set
// number of seconds, checks every output against the workload's exact
// oracle outside the timed regions, and prints the end-to-end metrics
// (--trace 0) or the traced run's per-layer metrics (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// See README.md for the metric → layer → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outcome is what one benchmark invocation measured.
type outcome struct {
	workload          string
	attempted, failed int64
	errs              []string
	notes             []string // sample counts and similar context for the report
	e2e               map[string]float64
	layer             map[string]float64
	samples           int
	sim               simStats
	trace             *recorder
	provenance        map[string]any
}

func newOutcome(workload string) *outcome {
	return &outcome{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// attempt counts one operation, failed when err is not nil. Failures are
// kept so they are printed, never dropped.
func (o *outcome) attempt(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 20 {
			o.errs = append(o.errs, err.Error())
		}
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes
	traceOut string // trace-event file of the traced run
}

// workloadNames is the fixed workload set, in BENCHMARK.json order.
var workloadNames = []string{"ckpt_recovery", "lattice_12cube", "tsimd_mix"}

func run(opt options) (*outcome, error) {
	o := newOutcome(opt.workload)
	prov := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}
	switch opt.workload {
	case "ckpt_recovery", "lattice_12cube":
		req := childRequest{Workload: opt.workload, Seed: opt.seed, Tiny: opt.tiny}
		w, err := batchFor(req)
		if err != nil {
			return nil, err
		}
		w.measure(o, opt)
		prov["logical_shards"], prov["kernel_workers"] = w.shards, kernelWorkers
	case "tsimd_mix":
		cfg := tsimdFull
		if opt.tiny {
			cfg = tsimdTiny
		}
		if err := tsimdMeasure(cfg, opt.seed, opt.seconds, opt.trace, opt.traceOut, o); err != nil {
			return nil, err
		}
		prov["tsimd_workers"], prov["client_connections"] = tsimdWorkers, clients
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	prov["samples"] = o.samples
	o.provenance = prov
	o.layer["failed_frac"] = float64(o.failed) / float64(o.attempted)
	return o, nil
}

// resultLine renders the final JSON object: every metric of defs, which
// the workload must have measured (per-layer metrics of layers the
// workload does not exercise read 0).
func resultLine(o *outcome, defs []metricDef, values map[string]float64, strict bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && strict {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	return json.Marshal(out)
}

// printReport writes the human-readable lines before the result: the
// provenance, every measured metric by name with its unit, the per-layer
// self-time breakdown of a traced run, and every failure.
func printReport(o *outcome) {
	prov, _ := json.Marshal(map[string]any{"provenance": o.provenance})
	fmt.Println(string(prov))
	show := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			if v, ok := values[d.name]; ok {
				fmt.Printf("  %-28s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	fmt.Printf("%s: end-to-end (%d samples)\n", o.workload, o.samples)
	show(endToEnd, o.e2e)
	fmt.Printf("%s: per layer\n", o.workload)
	show(perLayer, o.layer)
	if o.trace != nil {
		self := o.trace.timelineSelf()
		var total time.Duration
		for _, st := range self {
			total += st.d
		}
		fmt.Printf("%s: span self time along the host-side and node 0 (tsimd: client 0) timeline\n", o.workload)
		for _, st := range self {
			fmt.Printf("  %-28s %10.4f s %6.1f%%\n", st.name, st.d.Seconds(), 100*st.d.Seconds()/total.Seconds())
		}
	}
	for _, n := range o.notes {
		fmt.Printf("%s: %s\n", o.workload, n)
	}
	fmt.Printf("%s: simulated statistics %+v\n", o.workload, o.sim)
	for _, e := range o.errs {
		fmt.Printf("FAILED: %s\n", e)
	}
}

func main() {
	if req := os.Getenv(childEnv); req != "" {
		childMain(req)
		return
	}
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&opt.traceOut, "trace-out", "", "trace-event file of the traced run (default .bench_build/traces/<workload>-<seed>.json)")
	flag.Parse()
	opt.trace = trace == 1
	if opt.traceOut == "" {
		opt.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", opt.workload, opt.seed))
	}
	o, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printReport(o)
	var line []byte
	if opt.trace {
		line, err = resultLine(o, perLayer, o.layer, false)
	} else {
		line, err = resultLine(o, endToEnd, o.e2e, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if o.failed > 0 {
		os.Exit(1)
	}
}
