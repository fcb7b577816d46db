package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tseries/internal/sim"
	"tseries/internal/workloads"
)

// Smoke tests: every workload at a tiny size, the published names
// against BENCHMARK.json, and the traced run's simulated statistics
// against the untraced run's. Run them from this directory with
// `go test ./...`.

// TestMain serves the child processes the benchmark spawns for its
// repetitions: they re-execute this test binary.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		childMain(req)
		return
	}
	os.Exit(m.Run())
}

func TestTinyRunsMeasureEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			opt := options{workload: w, seed: 3, seconds: 0.5, trace: trace, tiny: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			o, err := run(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed: %v", w, trace, o.failed, o.attempted, o.errs)
			}
			for _, d := range endToEnd {
				if v, ok := o.e2e[d.name]; !ok || v <= 0 {
					t.Errorf("%s trace=%v: end-to-end %s = %v, %v; want a positive measurement", w, trace, d.name, v, ok)
				}
			}
			if _, err := resultLine(o, endToEnd, o.e2e, true); err != nil {
				t.Error(err)
			}
			if !trace {
				continue
			}
			for _, name := range []string{"sim.events", "failed_frac", "trace_overhead_frac"} {
				if _, ok := o.layer[name]; !ok {
					t.Errorf("%s: traced run did not report %s", w, name)
				}
			}
			data, err := os.ReadFile(opt.traceOut)
			if err != nil {
				t.Fatalf("%s: trace file: %v", w, err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("%s: trace file is not trace-event JSON: %v", w, err)
			}
			if len(tf.TraceEvents) == 0 || tf.TraceEvents[0].Ph != "X" {
				t.Errorf("%s: trace file holds %d events, want complete (X) events", w, len(tf.TraceEvents))
			}
		}
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestTracedSimStatsMatchUntraced(t *testing.T) {
	for _, name := range []string{"ckpt_recovery", "lattice_12cube"} {
		req := childRequest{Workload: name, Seed: 5, Tiny: true}
		w, err := batchFor(req)
		if err != nil {
			t.Fatal(err)
		}
		if w.want != nil {
			req.Want = w.want()
		}
		plain := w.child(context.Background(), req)
		req.Traced, req.Layers = true, true
		traced := w.child(context.Background(), req)
		if plain.Err != "" || traced.Err != "" {
			t.Fatalf("%s: untraced %q, traced %q", name, plain.Err, traced.Err)
		}
		if plain.Stats != traced.Stats {
			t.Errorf("%s: traced %+v, untraced %+v", name, traced.Stats, plain.Stats)
		}
	}
}

// The benchmark drives the library workloads step by step; these pin
// that its copies simulate exactly what the library functions do.

func TestCkptMirrorsLibrary(t *testing.T) {
	ctx := context.Background()
	cfg := ckptTiny
	c, err := ckptSetup(ctx, cfg, ckptPlan(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	end, err := c.run(nil)
	if err != nil || !c.correct() {
		t.Fatalf("benchmark run: err %v, correct %v", err, c.correct())
	}
	got := c.simStats(end)
	lib, err := workloads.FaultTolerantSAXPY(workloads.WithKernelShards(ctx, kernelWorkers),
		cfg.dim, cfg.phases, cfg.rowsPerPhase, cfg.pad, cfg.ckpt, ckptPlan(9))
	if err != nil || !lib.Correct {
		t.Fatalf("library run: err %v, correct %v", err, lib.Correct)
	}
	want := simStats{ElapsedPs: int64(lib.Elapsed), Events: lib.Stats.Events, LinkBytes: lib.Stats.Counters["link.bytes"],
		Checkpoints: int64(lib.Checkpoints), Rollbacks: lib.Rollbacks}
	if got != want || want.Rollbacks != 1 {
		t.Errorf("benchmark %+v, library %+v (want one rollback)", got, want)
	}
}

func TestLatticeMirrorsLibrary(t *testing.T) {
	ctx := context.Background()
	cfg := latticeTiny
	lr, err := latticeSetup(ctx, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	end, err := lr.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := workloads.DistributedLattice4D(workloads.WithKernelShards(ctx, kernelWorkers), cfg.dim, cfg.side, cfg.iters, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Duration(end) != lib.Elapsed || lr.m.SimStats().Events != lib.Stats.Events {
		t.Errorf("benchmark ends at %v after %d events, library at %v after %d", sim.Duration(end), lr.m.SimStats().Events, lib.Elapsed, lib.Stats.Events)
	}
	got := lr.field()
	for i := range got {
		if got[i] != lib.Field[i] {
			t.Fatalf("site %d: benchmark %v, library %v", i, got[i], lib.Field[i])
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := run(options{workload: "nope", seconds: 1}); err == nil {
		t.Fatal("unknown workload ran")
	}
}
