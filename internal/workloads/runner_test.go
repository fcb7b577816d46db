package workloads

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tseries/internal/sim"
)

// smallConfig keeps every workload tiny so the whole registry can be
// exercised in one short test.
func smallConfig() Config {
	return Config{Dim: 2, N: 16, Rows: 4, Iters: 4, Reps: 1, Phases: 2, Seed: 1}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"dlu", "fft", "lattice", "lu", "matmul", "pring", "recovery", "saxpy", "soak", "solve", "sort", "stencil"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range Names() {
		r, err := Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if r.Name() != n {
			t.Fatalf("Get(%q).Name() = %q", n, r.Name())
		}
		if len(r.Flags()) == 0 {
			t.Fatalf("runner %q declares no flags", n)
		}
	}
}

func TestGetUnknownListsValid(t *testing.T) {
	_, err := Get("nope")
	if err == nil {
		t.Fatal("Get(nope) should fail")
	}
	for _, n := range []string{"nope", "saxpy", "matmul"} {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("error %q does not mention %q", err, n)
		}
	}
}

// TestAllRunnersProduceUniformReports runs every registered workload at a
// small size and checks the Report contract: self-verification passed,
// the simulated clock advanced, the kernel stats were captured, and
// distributed workloads accounted their link traffic.
func TestAllRunnersProduceUniformReports(t *testing.T) {
	cfg := smallConfig()
	for _, r := range Runners() {
		rep, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if rep.Workload != r.Name() {
			t.Errorf("%s: report names %q", r.Name(), rep.Workload)
		}
		if rep.Elapsed <= 0 {
			t.Errorf("%s: no simulated time", r.Name())
		}
		if rep.Kernel.Events == 0 {
			t.Errorf("%s: kernel stats not captured", r.Name())
		}
		if rep.Nodes < 1 || rep.Summary == "" {
			t.Errorf("%s: incomplete report: %+v", r.Name(), rep)
		}
		// Multi-node workloads must account their link payloads.
		switch r.Name() {
		case "dlu", "fft", "matmul", "recovery", "stencil":
			if rep.Bytes == 0 {
				t.Errorf("%s: no link bytes counted", r.Name())
			}
		}
		if got := rep.String(); !strings.Contains(got, rep.Summary) || !strings.Contains(got, "kernel:") {
			t.Errorf("%s: String() missing summary or kernel line:\n%s", r.Name(), got)
		}
	}
}

// TestRunnerDeterminism re-runs a workload on the same Config and expects
// a bit-identical report, the property the parallel sweep runner builds
// on.
func TestRunnerDeterminism(t *testing.T) {
	r, err := Get("matmul")
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same Config, different reports:\n%s\n---\n%s", a.String(), b.String())
	}
	if !reflect.DeepEqual(a.Kernel, b.Kernel) {
		t.Fatalf("kernel stats differ:\n%+v\n%+v", a.Kernel, b.Kernel)
	}
}

// TestReportRates sanity-checks the derived-rate helpers.
func TestReportRates(t *testing.T) {
	rep := Report{Flops: 128e6, Bytes: 2e6, Elapsed: sim.Second}
	if got := rep.MFLOPS(); got != 128 {
		t.Fatalf("MFLOPS = %g", got)
	}
	if got := rep.LinkMBps(); got != 2 {
		t.Fatalf("LinkMBps = %g", got)
	}
}

// TestRunsReleaseGoroutines runs every registered workload and checks
// that the goroutine count returns to where it started: a finished run
// must unwind the daemon processes (routers, heartbeats, module
// threads) still parked when its simulation drained, or every machine
// stays reachable for the life of the host process. The dim-4 recovery
// run covers a two-shard machine.
func TestRunsReleaseGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, r := range Runners() {
		if _, err := r.Run(smallConfig()); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
	}
	r, err := Get("recovery")
	if err != nil {
		t.Fatal(err)
	}
	two := smallConfig()
	two.Dim = 4
	if _, err := r.Run(two); err != nil {
		t.Fatalf("recovery dim 4: %v", err)
	}
	// A closed process's goroutine hands the kernel its last slot just
	// before it returns, so the count can trail the close briefly.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after the runs, %d before", n, start)
	}
}
