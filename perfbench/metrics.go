package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef is one published metric: its name, unit, which direction is
// better, and the layer it belongs to ("" for end-to-end metrics).
type metricDef struct {
	name, unit, better, layer string
}

// endToEnd lists the metrics a user of the simulator or of tsimd pays:
// host CPU time, allocation and memory. Every workload reports every one
// of them (see README.md for what each means per workload); the
// benchmark's --trace 0 output is exactly this set. Elapsed-time figures
// are in perLayer: on a host whose hypervisor steals a fifth of its CPU
// time and whose disk's fsync latency swings several-fold, they spread
// too wide between runs to carry a regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"run_cpu_s", "s", "lower", ""},
	{"sim_events_per_cpu_s", "1/s", "higher", ""},
	{"alloc_mb", "MiB", "lower", ""},
	{"live_heap_mb", "MiB", "lower", ""},
}

// perLayer lists the traced run's metrics; --trace 1 output is exactly
// this set. A layer a workload does not exercise reports 0. The bench
// entries are the elapsed-time twins of the end-to-end metrics and the
// run's own health.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", "sim"},
	{"sim.parks", "count", "lower", "sim"},
	{"sim.windows", "count", "lower", "sim"},
	{"sim.cross_shard", "count", "lower", "sim"},
	{"sim.elapsed_ps", "ps", "lower", "sim"},
	{"sim.host_ns_per_event", "ns", "lower", "sim"},

	{"memory.rows_materialized", "count", "lower", "memory"},
	{"memory.cow_copies", "count", "lower", "memory"},
	{"memory.resident_mb", "MiB", "lower", "memory"},
	{"memory.row_load_ns", "ns", "lower", "memory"},

	{"fparith.add64_ns", "ns", "lower", "fparith"},
	{"fparith.mul64_ns", "ns", "lower", "fparith"},
	{"fparith.ops", "count", "lower", "fparith"},
	{"fparith.sweep_share", "ratio", "lower", "fparith"},

	{"fpu.run_form_us", "us", "lower", "fpu"},

	{"link.bytes", "B", "lower", "link"},
	{"link.retransmits", "count", "lower", "link"},
	{"link.send_us_per_kb", "us/KiB", "lower", "link"},

	{"comm.send_us", "us", "lower", "comm"},
	{"comm.recv_us", "us", "lower", "comm"},
	{"comm.barrier_us", "us", "lower", "comm"},

	{"module.snapshot_host_ms", "ms", "lower", "module"},
	{"module.snapshot_sim_ms", "ms", "lower", "module"},
	{"module.restore_host_ms", "ms", "lower", "module"},
	{"module.ckpt_logical_mb", "MiB", "lower", "module"},
	{"module.disk_rows_shared", "count", "higher", "module"},
	{"module.disk_rows_copied", "count", "lower", "module"},

	{"fault.corrupt_us", "us", "lower", "fault"},
	{"fault.frames_hit", "count", "lower", "fault"},

	{"machine.build_s", "s", "lower", "machine"},
	{"machine.checkpoint_host_ms", "ms", "lower", "machine"},
	{"machine.checkpoint_share", "ratio", "lower", "machine"},
	{"machine.checkpoints", "count", "lower", "machine"},
	{"machine.rollbacks", "count", "lower", "machine"},
	{"machine.recovery_sim_ms", "ms", "lower", "machine"},

	{"durable.append_sync_us_p50", "us", "lower", "durable"},
	{"durable.append_sync_us_p99", "us", "lower", "durable"},
	{"durable.append_lazy_us", "us", "lower", "durable"},
	{"durable.put_us", "us", "lower", "durable"},
	{"durable.get_us", "us", "lower", "durable"},
	{"durable.replay_ms", "ms", "lower", "durable"},

	{"serve.submit_us", "us", "lower", "serve"},
	{"serve.queue_wait_ms_p99", "ms", "lower", "serve"},
	{"serve.exec_ms_p50", "ms", "lower", "serve"},
	{"serve.hit_ratio", "ratio", "higher", "serve"},
	{"serve.rejected", "count", "lower", "serve"},
	{"miss_p50_ms", "ms", "lower", "serve"},
	{"miss_p99_ms", "ms", "lower", "serve"},
	{"hit_p50_ms", "ms", "lower", "serve"},
	{"hit_p99_ms", "ms", "lower", "serve"},
	{"result_p99_ms", "ms", "lower", "serve"},
	{"capacity_jobs_per_s", "1/s", "higher", "serve"},

	{"loadgen.lag_p99_ms", "ms", "lower", "loadgen"},

	{"setup_wall_s", "s", "lower", "bench"},
	{"run_s", "s", "lower", "bench"},
	{"sim_events_per_s", "1/s", "higher", "bench"},
	{"failed_frac", "ratio", "lower", "bench"},
	{"trace_overhead_frac", "ratio", "lower", "bench"},
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// heap reads the runtime's cumulative heap-allocated bytes and the live
// heap as of the last completed GC.
func heap() (allocs, live uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeapMiB forces collections and returns the live heap. Callers
// keep what they want counted reachable across the call. The second
// collection empties what sync.Pool victim caches kept through the
// first, so pooled buffers do not make the reading drift.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	_, live := heap()
	return float64(live) / (1 << 20)
}

const mib = 1 << 20

// cpuTime is the CPU time (user plus system, every thread) this process
// has used so far. Unlike elapsed time it does not grow while the host's
// hypervisor runs someone else on our CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
