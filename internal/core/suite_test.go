package core

import (
	"context"

	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tseries/internal/workloads"
)

func TestRegistryOrder(t *testing.T) {
	want := []string{
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20",
		"A1", "A2", "A3", "A4", "A5", "A6",
	}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
}

func TestFindUnknownListsValid(t *testing.T) {
	_, err := Find("E99")
	if err == nil {
		t.Fatal("Find(E99) should fail")
	}
	for _, id := range []string{"E99", "E1", "A6"} {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error %q does not mention %q", err, id)
		}
	}
}

// renderSuite turns suite results into the exact text a serial tsim run
// prints, the byte-identity yardstick for the parallel runner.
func renderSuite(results []*Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestSuiteParallelMatchesSerial is the acceptance check for the
// parallel runner: the full suite run on 4 workers must render
// byte-identically to the serial run.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison in long mode only")
	}
	exps := All()
	serial, err := RunSuite(context.Background(), exps, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuite(context.Background(), exps, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderSuite(serial), renderSuite(parallel)
	if a != b {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

func TestRunSweepOrderedAndDeterministic(t *testing.T) {
	base := workloads.DefaultConfig()
	base.Rows = 10
	dims := []int{0, 1, 2, 3}
	serial, err := RunSweep(context.Background(), "saxpy", base, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(context.Background(), "saxpy", base, dims, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(dims) || len(parallel) != len(dims) {
		t.Fatalf("point counts: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Dim != dims[i] {
			t.Fatalf("point %d has dim %d", i, serial[i].Dim)
		}
		if serial[i].Err != nil {
			t.Fatalf("dim %d: %v", dims[i], serial[i].Err)
		}
		if got, want := parallel[i].Report.String(), serial[i].Report.String(); got != want {
			t.Fatalf("dim %d differs:\n%s\n---\n%s", dims[i], want, got)
		}
	}
	// Throughput must grow with the cube: 8 nodes beat 1.
	if serial[3].Report.MFLOPS() <= serial[0].Report.MFLOPS() {
		t.Fatalf("no scaling: dim0 %.1f vs dim3 %.1f MFLOPS",
			serial[0].Report.MFLOPS(), serial[3].Report.MFLOPS())
	}
}

func TestRunSweepUnknownWorkload(t *testing.T) {
	if _, err := RunSweep(context.Background(), "bogus", workloads.DefaultConfig(), []int{1}, 1); err == nil {
		t.Fatal("unknown workload should fail the sweep")
	}
}

// TestRunSweepPerPointErrors: a sweep keeps going past a dimension that
// cannot host the problem (N=16 does not divide over 2^5 nodes).
func TestRunSweepPerPointErrors(t *testing.T) {
	base := workloads.DefaultConfig()
	base.N = 16
	points, err := RunSweep(context.Background(), "matmul", base, []int{2, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Err != nil {
		t.Fatalf("dim 2 should work: %v", points[0].Err)
	}
	if points[1].Err == nil {
		t.Fatal("dim 5 with N=16 should fail (16 rows over 32 nodes)")
	}
}

// TestRunSweepCancelMidSweepNoGoroutineLeak is the acceptance check for
// cooperative cancellation: cancel a parallel sweep while points are in
// flight, and both the pool workers and every simulated-process
// goroutine inside the in-flight kernels must unwind.
func TestRunSweepCancelMidSweepNoGoroutineLeak(t *testing.T) {
	base := workloads.DefaultConfig()
	base.Rows = 400
	base.Reps = 8
	dims := []int{4, 4, 4, 4, 4, 4, 4, 4}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		points []SweepPoint
		err    error
	}
	done := make(chan out, 1)
	go func() {
		points, err := RunSweep(ctx, "saxpy", base, dims, 4)
		done <- out{points, err}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()

	var got out
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunSweep did not return after cancel")
	}
	if got.err == nil || !strings.Contains(got.err.Error(), context.Canceled.Error()) {
		t.Fatalf("sweep error = %v, want context.Canceled", got.err)
	}
	if len(got.points) != len(dims) {
		t.Fatalf("got %d points, want %d", len(got.points), len(dims))
	}
	canceled := 0
	for _, pt := range got.points {
		if pt.Err != nil {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("cancel mid-sweep marked no point with an error")
	}

	// Every worker and simulated-process goroutine must drain. Poll:
	// kernel teardown finishes after RunSweep returns its error only by a
	// few scheduler beats, never seconds.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after canceled sweep: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunSuiteCanceledBeforeStart: a pre-canceled context launches
// nothing and marks every slot with the context's error.
func TestRunSuiteCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exps := All()[:3]
	results, err := RunSuite(ctx, exps, 2)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Fatalf("slot %d has a result despite pre-canceled context", i)
		}
	}
}

// BenchmarkSuiteSerial and BenchmarkSuiteParallel time the full
// experiment suite; the parallel benchmark also reports its measured
// speedup over a serial reference pass (the ≥2× acceptance target on
// ≥4 cores).
func BenchmarkSuiteSerial(b *testing.B) {
	exps := All()
	for i := 0; i < b.N; i++ {
		if _, err := RunSuite(context.Background(), exps, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteParallel(b *testing.B) {
	exps := All()
	// One serial reference pass, timed by hand: testing.Benchmark cannot
	// be nested inside a running benchmark (it deadlocks on the global
	// benchmark lock).
	start := time.Now()
	if _, err := RunSuite(context.Background(), exps, 1); err != nil {
		b.Fatal(err)
	}
	serialPerOp := float64(time.Since(start).Nanoseconds())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSuite(context.Background(), exps, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	parallelPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(serialPerOp/parallelPerOp, "speedup_vs_serial")
	b.ReportMetric(float64(runtime.NumCPU()), "host_cpus")
}

// TestExperimentsReleaseGoroutines runs the experiments whose machines
// leave daemons parked when they drain (link routers, module threads)
// and checks that each closes what it built: the goroutine count must
// return to where it started.
func TestExperimentsReleaseGoroutines(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"E8", "E9", "E11", "A4", "A5", "A6"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	start := runtime.NumGoroutine()
	if _, err := RunSuite(context.Background(), exps, 1); err != nil {
		t.Fatal(err)
	}
	// A closed process's goroutine hands the kernel its last slot just
	// before it returns, so the count can trail the close briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after the experiments, %d before", n, start)
	}
}
