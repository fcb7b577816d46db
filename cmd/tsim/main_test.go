package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), &out, &errb, args)
	return code, out.String(), errb.String()
}

// Unknown names must exit non-zero and tell the user what is valid —
// the registry error messages carry the lists.
func TestUnknownWorkloadListsValidAndExitsNonzero(t *testing.T) {
	code, _, stderr := runCLI(t, "-workload", "bogus")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for _, name := range []string{"bogus", "saxpy", "matmul", "recovery"} {
		if !strings.Contains(stderr, name) {
			t.Fatalf("stderr %q does not mention %q", stderr, name)
		}
	}
}

func TestUnknownExperimentListsValidAndExitsNonzero(t *testing.T) {
	code, _, stderr := runCLI(t, "-experiment", "E99")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	for _, id := range []string{"E99", "E1", "E17", "A6"} {
		if !strings.Contains(stderr, id) {
			t.Fatalf("stderr %q does not mention %q", stderr, id)
		}
	}
}

func TestListShowsBothRegistries(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"E1", "A6", "saxpy", "stencil", "-dim"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("-list output missing %q:\n%s", want, stdout)
		}
	}
}

func TestNoArgsPrintsUsage(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-experiment") || !strings.Contains(stderr, "saxpy") {
		t.Fatalf("usage should name the flags and registries:\n%s", stderr)
	}
}

func TestBadSweepSpec(t *testing.T) {
	code, _, stderr := runCLI(t, "-workload", "saxpy", "-sweep", "nodes=1..4")
	if code != 2 || !strings.Contains(stderr, "dim=LO..HI") {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
}

// Interrupt semantics: a canceled run context must exit 130 (128 +
// SIGINT), report the interrupt on stderr, and emit no partial JSON on
// stdout — downstream pipes see either a complete document or nothing.
func TestInterruptExits130AndSuppressesJSON(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-workload", "saxpy", "-dim", "2", "-rows", "50", "-json"},
		{"-workload", "saxpy", "-sweep", "dim=1..3", "-rows", "50", "-json"},
		{"-experiment", "E1", "-json"},
	} {
		var out, errb bytes.Buffer
		code := run(ctx, &out, &errb, args)
		if code != interruptExit {
			t.Fatalf("%v: exit = %d, want %d (stderr: %s)", args, code, interruptExit, errb.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%v: interrupted run wrote partial output:\n%s", args, out.String())
		}
		if !strings.Contains(errb.String(), "interrupted") {
			t.Fatalf("%v: stderr %q does not mention the interrupt", args, errb.String())
		}
	}
}

func TestWorkloadJSONRoundTrips(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-workload", "saxpy", "-dim", "1", "-rows", "5", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	var rep struct {
		Workload string
		Nodes    int
		Elapsed  int64
		Kernel   struct{ Events int64 }
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if rep.Workload != "saxpy" || rep.Nodes != 2 || rep.Elapsed <= 0 || rep.Kernel.Events == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestExperimentAllGolden pins the full-suite JSON output to a
// checked-in golden file. The kernel guarantees deterministic event
// ordering, so any byte of drift here is a scheduling-order regression,
// not noise. Regenerate (after an intentional semantic change) with:
//
//	go run ./cmd/tsim -experiment all -json > cmd/tsim/testdata/experiment_all_golden.json
func TestExperimentAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is too slow for -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "experiment_all_golden.json"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	code, stdout, stderr := runCLI(t, "-experiment", "all", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	if msg := goldenDiff([]byte(stdout), want); msg != "" {
		t.Fatal(msg)
	}
}

// TestWorkloadJSONGolden pins the full -json report of single-kernel
// workload runs — Kernel stats included, which the experiment golden
// does not carry — to files recorded before serial machines became
// one-shard partitions. A serial machine must stay byte-identical to
// the monolithic build it replaced. Never regenerate these files to
// make a change pass: a diff here is a change in simulated behaviour.
func TestWorkloadJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"workload_saxpy.json", []string{"-workload", "saxpy", "-dim", "4", "-rows", "50"}},
		{"workload_matmul.json", []string{"-workload", "matmul", "-dim", "4", "-n", "32"}},
		{"workload_recovery.json", []string{"-workload", "recovery", "-dim", "2", "-phases", "6", "-faults", "seed=5,ber=1e-6"}},
		{"workload_soak.json", []string{"-workload", "soak", "-dim", "3", "-reps", "1", "-chaos", "seed=4,dur=60s,crashes=1,hangs=1"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatalf("reading golden: %v", err)
			}
			code, stdout, stderr := runCLI(t, append(tc.args, "-json")...)
			if code != 0 {
				t.Fatalf("exit = %d, stderr: %s", code, stderr)
			}
			if msg := goldenDiff([]byte(stdout), want); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// goldenDiff returns "" when got equals want, or a message locating the
// first differing byte with some context on either side.
func goldenDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo, hi := i-60, i+60
	if lo < 0 {
		lo = 0
	}
	ctx := func(b []byte) string {
		h := hi
		if h > len(b) {
			h = len(b)
		}
		if lo >= h {
			return ""
		}
		return string(b[lo:h])
	}
	return fmt.Sprintf("output differs from golden at byte %d (got %d bytes, want %d)\n got: …%q…\nwant: …%q…",
		i, len(got), len(want), ctx(got), ctx(want))
}

// TestKernelShardsFlagIsOutputInvariant pins the CLI-level determinism
// contract: -kernel-shards changes only how many host workers execute
// the simulation, never a byte of output. The shard-native pring
// workload genuinely partitions; experiments degrade to the serial
// plan (machine.PartitionPlan.Buildable) with a stderr note.
func TestKernelShardsFlagIsOutputInvariant(t *testing.T) {
	base := []string{"-workload", "pring", "-dim", "3", "-rows", "40", "-iters", "3", "-json"}
	code, want, stderr := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("serial exit = %d, stderr: %s", code, stderr)
	}
	for _, shards := range []string{"2", "4"} {
		code, got, stderr := runCLI(t, append([]string{"-kernel-shards", shards}, base...)...)
		if code != 0 {
			t.Fatalf("shards=%s: exit = %d, stderr: %s", shards, code, stderr)
		}
		if got != want {
			t.Fatalf("shards=%s: output differs from serial\nserial: %s\nsharded: %s", shards, want, got)
		}
	}

	// Experiments partition machine builds by geometry and treat the flag
	// as a worker count, so their output must be flag-invariant with no
	// advisory chatter on stderr.
	code, want, stderr = runCLI(t, "-experiment", "E1", "-json")
	if code != 0 {
		t.Fatalf("E1 serial exit = %d, stderr: %s", code, stderr)
	}
	code, got, stderr := runCLI(t, "-experiment", "E1", "-json", "-kernel-shards", "4")
	if code != 0 {
		t.Fatalf("E1 sharded exit = %d, stderr: %s", code, stderr)
	}
	if got != want {
		t.Fatalf("E1: -kernel-shards changed experiment output\nserial: %s\nsharded: %s", want, got)
	}
	if strings.Contains(stderr, "serial plan") {
		t.Fatalf("stale serial-plan note still on stderr: %q", stderr)
	}
}

// TestBenchWritesTrajectories exercises the -bench path end to end:
// both JSON documents land in -benchdir, parse, and carry the expected
// schemas, and a generous baseline passes the regression gate.
func TestBenchWritesTrajectories(t *testing.T) {
	if testing.Short() {
		t.Skip("bench mode times the full suite; too slow for -short")
	}
	dir := t.TempDir()
	// A baseline so slow nothing can regress against it.
	baseline := filepath.Join(dir, "baseline.json")
	base := map[string]interface{}{
		"schema": "tseries-bench-kernel/v1",
		"results": []map[string]interface{}{
			{"name": "at_now", "ns_per_op": 1e9},
			{"name": "park_unpark", "ns_per_op": 1e9},
		},
	}
	raw, _ := json.Marshal(base)
	if err := os.WriteFile(baseline, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-bench", "-short", "-benchdir", dir, "-bench-baseline", baseline)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\n%s", code, stderr, stdout)
	}
	var kt struct {
		Schema  string `json:"schema"`
		Results []struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"results"`
	}
	kb, err := os.ReadFile(filepath.Join(dir, "BENCH_kernel.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(kb, &kt); err != nil {
		t.Fatalf("BENCH_kernel.json: %v", err)
	}
	if kt.Schema != "tseries-bench-kernel/v1" || len(kt.Results) < 7 {
		t.Fatalf("unexpected kernel trajectory: schema=%q results=%d", kt.Schema, len(kt.Results))
	}
	for _, r := range kt.Results {
		if r.NsPerOp <= 0 {
			t.Fatalf("%s: ns_per_op = %g", r.Name, r.NsPerOp)
		}
	}
	var st struct {
		Schema      string                   `json:"schema"`
		Experiments []map[string]interface{} `json:"experiments"`
		Workloads   []map[string]interface{} `json:"workloads"`
	}
	sb, err := os.ReadFile(filepath.Join(dir, "BENCH_suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatalf("BENCH_suite.json: %v", err)
	}
	if st.Schema != "tseries-bench-suite/v1" || len(st.Experiments) == 0 || len(st.Workloads) == 0 {
		t.Fatalf("unexpected suite trajectory: schema=%q exps=%d wls=%d",
			st.Schema, len(st.Experiments), len(st.Workloads))
	}
	if !strings.Contains(stdout, "vs baseline") {
		t.Fatalf("expected a baseline comparison section:\n%s", stdout)
	}
}

// TestProfileFlagsWriteFiles checks -cpuprofile/-memprofile wrap a
// normal run and leave non-empty pprof files behind.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, stderr := runCLI(t, "-workload", "sort", "-n", "32", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestExperimentSubsetRunsInRequestedOrder checks the comma-list path
// end to end on two cheap experiments.
func TestExperimentSubsetRunsInRequestedOrder(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-experiment", "E7,E1")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr)
	}
	i7, i1 := strings.Index(stdout, "### E7"), strings.Index(stdout, "### E1 ")
	if i7 < 0 || i1 < 0 || i7 > i1 {
		t.Fatalf("expected E7 before E1:\n%s", stdout)
	}
}

// TestPreSparseGoldenPreserved pins the compatibility contract of the
// sparse-memory / dedup-disk rewrite: every experiment recorded in the
// golden BEFORE node memory went sparse (archived as
// experiment_all_pre_sparse.json) must still appear byte-for-byte in
// today's golden. Sparsity is a host-representation change only — every
// simulated time, counter, and fault fingerprint must survive it.
func TestPreSparseGoldenPreserved(t *testing.T) {
	load := func(name string) map[string]json.RawMessage {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		var results []json.RawMessage
		if err := json.Unmarshal(raw, &results); err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		out := map[string]json.RawMessage{}
		for _, r := range results {
			var id struct{ ID string }
			if err := json.Unmarshal(r, &id); err != nil {
				t.Fatalf("parsing %s entry: %v", name, err)
			}
			out[id.ID] = r
		}
		return out
	}
	pre := load("experiment_all_pre_sparse.json")
	cur := load("experiment_all_golden.json")
	if len(pre) == 0 {
		t.Fatal("pre-sparse golden is empty")
	}
	for id, want := range pre {
		got, ok := cur[id]
		if !ok {
			t.Errorf("experiment %s vanished from the current golden", id)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("experiment %s drifted from its pre-sparse output", id)
		}
	}
}
