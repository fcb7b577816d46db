// Package bench is the performance trajectory emitter: it measures the
// simulation kernel's hot paths and the wall-clock cost of the full
// experiment/workload suite, and renders both as stable JSON documents
// (BENCH_kernel.json, BENCH_suite.json) that are checked into the repo.
// Successive commits thereby carry a machine-readable performance
// history, and CI can fail a change that regresses ns/event against the
// checked-in baseline (see CompareKernel).
//
// The measurement loop is deliberately self-contained rather than built
// on testing.Benchmark: it needs to run inside the tsim binary (no test
// harness), honour a cheap -short mode, and report simulation events per
// second — a quantity testing.B does not know about.
package bench

import (
	"runtime"
	"time"

	"tseries/internal/sim"
)

// KernelSchema identifies the BENCH_kernel.json document shape.
const KernelSchema = "tseries-bench-kernel/v1"

// KernelResult is one hot-path micro-measurement. NsPerOp divides wall
// time by requested operations; EventsPerSec divides the kernel's own
// executed-event count by wall time, so scenarios that cost several
// events per operation (channel rendezvous, resource handoff) report
// both honestly. AllocsPerOp and BytesPerOp amortise the scenario's
// setup over the operation count, so pooled paths converge toward zero
// rather than hitting it exactly.
type KernelResult struct {
	Name         string  `json:"name"`
	Iters        int64   `json:"iters"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	WallNs       int64   `json:"wall_ns"`
	Events       int64   `json:"events"`
	// Shards is the logical shard count for the parallel-kernel scaling
	// scenarios (zero for the serial hot-path scenarios), so serial and
	// sharded trajectories are distinguishable in the baseline.
	Shards int `json:"shards,omitempty"`
}

// KernelTrajectory is the BENCH_kernel.json document.
type KernelTrajectory struct {
	Schema    string `json:"schema"`
	Short     bool   `json:"short"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs records the host parallelism the measurement ran under:
	// with the parallel kernel, events/sec depends on it, not just on
	// num_cpu.
	GoMaxProcs int            `json:"gomaxprocs"`
	Results    []KernelResult `json:"results"`
}

// scenario builds a fresh kernel, executes n operations of one hot-path
// shape, and returns the kernel's executed-event count.
type scenario struct {
	name string
	run  func(n int) int64
}

// kernelScenarios mirrors the internal/sim microbenchmarks so the two
// surfaces measure the same shapes: the same-instant lane, the calendar
// queue (chained and spread), the park/unpark slot transfer, a lone
// sleeper, channel rendezvous, and resource contention.
func kernelScenarios() []scenario {
	return []scenario{
		{"at_now", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			i := 0
			var step func()
			step = func() {
				if i++; i < n {
					k.At(k.Now(), step)
				}
			}
			k.At(0, step)
			k.Run(0)
			return k.Stats().Events
		}},
		{"at_future", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			i := 0
			var step func()
			step = func() {
				if i++; i < n {
					k.At(k.Now().Add(sim.Nanosecond), step)
				}
			}
			k.At(0, step)
			k.Run(0)
			return k.Stats().Events
		}},
		{"at_future_spread", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			const window = 512
			i := 0
			var step func()
			step = func() {
				if i++; i < n {
					k.At(k.Now().Add(sim.Duration(1+i%37)*100*sim.Nanosecond), step)
				}
			}
			for j := 0; j < window && j < n; j++ {
				k.At(sim.Time(0).Add(sim.Duration(j)*3*sim.Nanosecond), step)
			}
			i = 0
			k.Run(0)
			return k.Stats().Events
		}},
		{"park_unpark", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			iters := n/2 + 1
			body := func(p *sim.Proc) {
				for j := 0; j < iters; j++ {
					p.Yield()
				}
			}
			k.Go("a", body)
			k.Go("b", body)
			k.Run(0)
			return k.Stats().Events
		}},
		{"wait_resume", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			k.Go("sleeper", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					p.Wait(sim.Nanosecond)
				}
			})
			k.Run(0)
			return k.Stats().Events
		}},
		{"chan_send_recv", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			c := sim.NewChan(k, "bench", 0)
			k.Go("tx", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					c.Send(p, j)
				}
			})
			k.Go("rx", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					c.Recv(p)
				}
			})
			k.Run(0)
			return k.Stats().Events
		}},
		{"resource_contention", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			r := sim.NewResource(k, "bus", 1)
			const procs = 4
			iters := n/procs + 1
			for j := 0; j < procs; j++ {
				k.Go("user", func(p *sim.Proc) {
					for m := 0; m < iters; m++ {
						r.Use(p, sim.Nanosecond)
					}
				})
			}
			k.Run(0)
			return k.Stats().Events
		}},
	}
}

// measure grows the operation count until one timed run lasts at least
// minTime, then reports that run. Growth is proportional (clamped to
// [2x, 64x]) so a scenario reaches its target in a handful of probes.
func measure(name string, minTime time.Duration, run func(n int) int64) KernelResult {
	n := 256
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		events := run(n)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if wall >= minTime || n >= 1<<24 {
			secs := wall.Seconds()
			if secs <= 0 {
				secs = 1e-9
			}
			return KernelResult{
				Name:         name,
				Iters:        int64(n),
				NsPerOp:      float64(wall.Nanoseconds()) / float64(n),
				EventsPerSec: float64(events) / secs,
				AllocsPerOp:  float64(m1.Mallocs-m0.Mallocs) / float64(n),
				BytesPerOp:   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
				WallNs:       wall.Nanoseconds(),
				Events:       events,
			}
		}
		scale := 64.0
		if wall > 0 {
			scale = float64(minTime) / float64(wall) * 1.2
			if scale < 2 {
				scale = 2
			} else if scale > 64 {
				scale = 64
			}
		}
		n = int(float64(n) * scale)
	}
}

// MeasureKernel runs every kernel scenario and assembles the trajectory.
// short trades precision for speed (25 ms per scenario instead of 250 ms)
// so CI smoke runs stay cheap.
func MeasureKernel(short bool) KernelTrajectory {
	minTime := 250 * time.Millisecond
	if short {
		minTime = 25 * time.Millisecond
	}
	t := KernelTrajectory{
		Schema:     KernelSchema,
		Short:      short,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, s := range kernelScenarios() {
		t.Results = append(t.Results, measure(s.name, minTime, s.run))
	}
	for _, s := range datapathScenarios() {
		t.Results = append(t.Results, measure(s.name, minTime, s.run))
	}
	// The scaling scenarios carry a fixed standing population whose
	// planting cost dilutes short samples, so they measure over a longer
	// window — the steady state is what the curve is about.
	for _, s := range shardScenarios() {
		r := measure(s.name, 4*minTime, s.run)
		r.Shards = s.shards
		t.Results = append(t.Results, r)
	}
	for _, s := range machineShardScenarios() {
		r := measure(s.name, 4*minTime, s.run)
		r.Shards = s.shards
		t.Results = append(t.Results, r)
	}
	// The large-configuration lattice curve: one probe is already a full
	// machine build, so the standard target time just reports that run.
	for _, s := range latticeScaleScenarios() {
		r := measure(s.name, minTime, s.run)
		r.Shards = s.shards
		t.Results = append(t.Results, r)
	}
	return t
}
