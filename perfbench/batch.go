package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"tseries/internal/fparith"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/sim"
	"tseries/internal/workloads"
)

// Every repetition of a batch workload runs in a child process of its
// own. A finished simulation leaves its daemon processes (routers,
// thread forwarders) parked on goroutines that never exit, and they keep
// the whole machine reachable; in one process the repetitions' machines
// would pile up — over 200 MiB each on the 12-cube — and every reading
// of the live heap would include its predecessors'.

// childEnv carries a childRequest to a child process.
const childEnv = "PERFBENCH_CHILD"

// minReps is the fewest repetitions behind a median; minSetups the
// fewest set-up samples behind setup_s, set-up-only children topping up
// the ones the repetitions give.
const minReps, minSetups = 3, 7

// childRequest is one child process's job.
type childRequest struct {
	Workload string
	Seed     int64
	Tiny     bool
	Setups   int  // > 0: only build this many machines, timing each
	Traced   bool // record spans around every layer call
	Layers   bool // traced: also fill the per-layer counts and run the probes
	TraceOut string
	Run      int    // run id of the spans
	Want     string // lattice_12cube: SHA-256 of the host reference field
}

// childResult is what a child measured.
type childResult struct {
	Setups     []float64 // CPU seconds of each set-up
	SetupWall  []float64 // elapsed seconds of each set-up
	RunS       float64
	RunCPU     float64 // CPU seconds of the run
	AllocBytes uint64
	LiveMiB    float64
	Stats      simStats
	Err        string
	Layers     map[string]float64
	Spans      map[string]spanAgg
}

// batchInstance is one built, loaded machine of a batch workload.
type batchInstance interface {
	run(tr *recorder) (sim.Time, error)
	simStats(end sim.Time) simStats
}

// batchWorkload is a simulation run repeatedly from its seed: each
// repetition builds a fresh machine (setup), runs it (run) and checks
// its output against the workload's exact oracle outside both timings.
type batchWorkload struct {
	setup func(ctx context.Context, tr *recorder) (batchInstance, error)
	// want computes the oracle's reference once, in the parent; nil
	// when check needs none.
	want func() string
	// check is the exact oracle; it never runs inside a timed region.
	check func(inst batchInstance, want string) error
	// layers fills the per-layer counts of a traced repetition and runs
	// the workload's layer probes.
	layers func(inst batchInstance, tr *recorder, out map[string]float64) error
	// shards is the machine's logical shard count (one per module).
	shards int
	// setupsPerChild is how many machines a set-up-only child builds.
	setupsPerChild int
}

// batchFor returns the batch workload a request names.
func batchFor(req childRequest) (*batchWorkload, error) {
	switch req.Workload {
	case "ckpt_recovery":
		if req.Tiny {
			return ckptWorkload(ckptTiny, req.Seed), nil
		}
		return ckptWorkload(ckptFull, req.Seed), nil
	case "lattice_12cube":
		if req.Tiny {
			return latticeWorkload(latticeTiny, req.Seed), nil
		}
		return latticeWorkload(latticeFull, req.Seed), nil
	}
	return nil, fmt.Errorf("%q is not a batch workload", req.Workload)
}

// once builds, runs and checks one machine. The instance is kept
// reachable across the live-heap reading, as a user holding the
// machine after the run would.
func (w *batchWorkload) once(ctx context.Context, req childRequest, tr *recorder, layers map[string]float64) childResult {
	var r childResult
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	inst, err := w.setup(ctx, tr)
	r.SetupWall = []float64{time.Since(t0).Seconds()}
	r.Setups = []float64{(cpuTime() - c0).Seconds()}
	if err != nil {
		r.Err = fmt.Sprintf("setup: %v", err)
		return r
	}
	a0, _ := heap()
	c1, t1 := cpuTime(), time.Now()
	end, err := inst.run(tr)
	r.RunS = time.Since(t1).Seconds()
	r.RunCPU = (cpuTime() - c1).Seconds()
	a1, _ := heap()
	r.AllocBytes = a1 - a0
	r.LiveMiB = liveHeapMiB()
	r.Stats = inst.simStats(end)
	if err != nil {
		r.Err = fmt.Sprintf("run: %v", err)
	} else if err := w.check(inst, req.Want); err != nil {
		r.Err = err.Error()
	} else if layers != nil {
		if err := w.layers(inst, tr, layers); err != nil {
			r.Err = err.Error()
		}
	}
	runtime.KeepAlive(inst)
	return r
}

// child serves one childRequest in this process.
func (w *batchWorkload) child(ctx context.Context, req childRequest) childResult {
	if req.Setups > 0 {
		var r childResult
		for i := 0; i < req.Setups; i++ {
			runtime.GC()
			c0, t0 := cpuTime(), time.Now()
			inst, err := w.setup(ctx, nil)
			r.SetupWall = append(r.SetupWall, time.Since(t0).Seconds())
			r.Setups = append(r.Setups, (cpuTime() - c0).Seconds())
			if err != nil {
				r.Err = err.Error()
				break
			}
			runtime.KeepAlive(inst)
		}
		return r
	}
	if !req.Traced {
		return w.once(ctx, req, nil, nil)
	}
	tr := newRecorder()
	tr.setRun(req.Run)
	var layers map[string]float64
	if req.Layers {
		layers = map[string]float64{}
	}
	r := w.once(ctx, req, tr, layers)
	r.Layers, r.Spans = layers, tr.totals()
	if req.TraceOut != "" {
		if err := tr.write(req.TraceOut, map[string]any{"workload": req.Workload, "seed": req.Seed, "run": req.Run}); err != nil && r.Err == "" {
			r.Err = fmt.Sprintf("write trace: %v", err)
		}
	}
	return r
}

// childMain is the entry point of a child process: it reads the request
// from the environment and prints the result as one JSON line.
func childMain(env string) {
	var req childRequest
	var res childResult
	if err := json.Unmarshal([]byte(env), &req); err != nil {
		res.Err = err.Error()
	} else if w, err := batchFor(req); err != nil {
		res.Err = err.Error()
	} else {
		res = w.child(context.Background(), req)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// spawn runs req in a child process of this executable and waits for it.
func spawn(req childRequest) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	b, err := json.Marshal(req)
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("child %s: %w", req.Workload, err)
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("child %s: result: %w", req.Workload, err)
	}
	return res, nil
}

// childErr turns a child's reported failure into an error.
func childErr(r childResult, err error) error {
	if err != nil {
		return err
	}
	if r.Err != "" {
		return fmt.Errorf("%s", r.Err)
	}
	return nil
}

// measure runs repetitions, each in its own child process, until
// seconds of set-up-plus-run time have been measured (at least minReps).
// With trace it alternates untraced and traced repetitions and fills the
// per-layer metrics from the traced ones.
func (w *batchWorkload) measure(o *outcome, opt options) {
	base := childRequest{Workload: opt.workload, Seed: opt.seed, Tiny: opt.tiny}
	if w.want != nil {
		base.Want = w.want()
	}
	var untraced, traced []childResult
	if opt.trace {
		o.trace = newRecorder()
	}
	var spent float64
	for i := 0; spent < opt.seconds || len(untraced) < minReps; i++ {
		r, err := spawn(base)
		o.attempt(childErr(r, err))
		if err != nil || len(r.Setups) == 0 {
			return
		}
		untraced = append(untraced, r)
		spent += r.SetupWall[0] + r.RunS
		if !opt.trace {
			continue
		}
		req := base
		req.Traced, req.Run = true, i+1
		if i == 0 {
			req.Layers, req.TraceOut = true, opt.traceOut
		}
		t, err := spawn(req)
		o.attempt(childErr(t, err))
		if err != nil || len(t.Setups) == 0 {
			return
		}
		if t.Err == "" && r.Err == "" && t.Stats != r.Stats {
			o.attempt(fmt.Errorf("traced run's simulated statistics %+v differ from untraced %+v", t.Stats, r.Stats))
		}
		for k, v := range t.Layers {
			o.layer[k] = v
		}
		o.trace.merge(t.Spans)
		traced = append(traced, t)
		spent += t.SetupWall[0] + t.RunS
	}

	var setups, setupWalls, runs, cpus, allocs, lives, rates, cpuRates []float64
	for _, r := range untraced {
		setups = append(setups, r.Setups...)
		setupWalls = append(setupWalls, r.SetupWall...)
		runs = append(runs, r.RunS)
		cpus = append(cpus, r.RunCPU)
		allocs = append(allocs, float64(r.AllocBytes)/mib)
		lives = append(lives, r.LiveMiB)
		rates = append(rates, float64(r.Stats.Events)/r.RunS)
		cpuRates = append(cpuRates, float64(r.Stats.Events)/r.RunCPU)
	}
	for len(setups) < minSetups {
		req := base
		req.Setups = min(w.setupsPerChild, minSetups-len(setups))
		r, err := spawn(req)
		o.attempt(childErr(r, err))
		if err != nil || r.Err != "" {
			return
		}
		setups = append(setups, r.Setups...)
		setupWalls = append(setupWalls, r.SetupWall...)
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["run_cpu_s"] = median(cpus)
	o.e2e["sim_events_per_cpu_s"] = median(cpuRates)
	o.e2e["alloc_mb"] = median(allocs)
	o.e2e["live_heap_mb"] = median(lives)
	o.layer["setup_wall_s"] = median(setupWalls)
	o.layer["run_s"] = median(runs)
	o.layer["sim_events_per_s"] = median(rates)
	o.samples = len(untraced)
	o.sim = untraced[len(untraced)-1].Stats
	if !opt.trace {
		return
	}

	var truns []float64
	for _, t := range traced {
		truns = append(truns, t.RunS)
	}
	tr := o.trace
	o.layer["trace_overhead_frac"] = median(truns)/median(runs) - 1
	o.layer["sim.elapsed_ps"] = float64(o.sim.ElapsedPs)
	o.layer["sim.host_ns_per_event"] = median(runs) * 1e9 / float64(o.sim.Events)
	o.layer["link.bytes"] = float64(o.sim.LinkBytes)
	o.layer["machine.checkpoints"] = float64(o.sim.Checkpoints)
	o.layer["machine.rollbacks"] = float64(o.sim.Rollbacks)
	o.layer["machine.build_s"] = tr.meanHost("machine.build", time.Second)
	o.layer["fpu.run_form_us"] = tr.meanHost("fpu.run_form", time.Microsecond)
	o.layer["comm.send_us"] = tr.meanHost("comm.send", time.Microsecond)
	o.layer["comm.recv_us"] = tr.meanHost("comm.recv", time.Microsecond)
	o.layer["comm.barrier_us"] = tr.meanHost("comm.barrier", time.Microsecond)
	o.layer["machine.checkpoint_host_ms"] = tr.meanHost("machine.checkpoint", time.Millisecond)
	runHost := tr.stat("machine.run").Host
	o.layer["machine.checkpoint_share"] = float64(tr.stat("machine.checkpoint").Host) / float64(runHost)
	o.layer["fparith.sweep_share"] = float64(tr.stat("fparith.sweep").Host) / float64(runHost) / kernelWorkers
}

// fieldDigest is the SHA-256 of a lattice field's bit patterns.
func fieldDigest(f []fparith.F64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range f {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// machineCounts fills the sim and memory per-layer counts of a
// finished machine.
func machineCounts(m *machine.Machine, out map[string]float64) machine.MemStats {
	st := m.SimStats()
	out["sim.events"] = float64(st.Events)
	out["sim.parks"] = float64(st.Parks)
	out["sim.windows"] = float64(st.Windows)
	out["sim.cross_shard"] = float64(st.CrossShard)
	ms := m.MemStats()
	out["memory.rows_materialized"] = float64(ms.RowsMaterialized)
	out["memory.cow_copies"] = float64(ms.CowCopies)
	out["memory.resident_mb"] = float64(ms.MemResidentBytes) / mib
	return ms
}

// ckptWorkload is ckpt_recovery at cfg with the plan drawn from seed.
func ckptWorkload(cfg ckptConfig, seed int64) *batchWorkload {
	return &batchWorkload{
		shards: (1 << cfg.dim) / module.NodesPerModule,
		// A machine builds in about a millisecond: one child times all.
		setupsPerChild: minSetups,
		setup: func(ctx context.Context, tr *recorder) (batchInstance, error) {
			return ckptSetup(ctx, cfg, ckptPlan(seed), tr)
		},
		check: func(inst batchInstance, _ string) error {
			if !inst.(*ckptRun).correct() {
				return fmt.Errorf("ckpt_recovery: result not bit-exact")
			}
			return nil
		},
		layers: func(inst batchInstance, tr *recorder, out map[string]float64) error {
			c := inst.(*ckptRun)
			ms := machineCounts(c.m, out)
			out["module.ckpt_logical_mb"] = float64(ms.DiskLogicalBytes) / mib
			out["module.disk_rows_shared"] = float64(ms.DiskRowsShared)
			out["module.disk_rows_copied"] = float64(ms.DiskRowsCopied)
			fc := c.m.FaultReport(c.plan, c.sv)
			out["link.retransmits"] = float64(fc.Retransmits)
			out["fault.frames_hit"] = float64(fc.FramesCorrupted)
			out["machine.recovery_sim_ms"] = float64(c.sv.LastRecovery) / float64(sim.Millisecond)
			out["fparith.ops"] = float64(int64(cfg.phases) * int64(cfg.rowsPerPhase) * int64(len(c.m.Nodes)) * 2 * memory.F64PerRow)

			out["memory.row_load_ns"] = probeRowLoad(c.m.Nodes[0].Mem, 20000)
			// SAXPY's own operand stream: 2·x_i, then + 3.
			var ops [][2]fparith.F64
			for i := 0; i < memory.F64PerRow; i++ {
				ops = append(ops, [2]fparith.F64{fparith.FromInt64(2), fparith.FromInt64(int64(i))},
					[2]fparith.F64{fparith.FromInt64(int64(2 * i)), fparith.FromInt64(3)})
			}
			out["fparith.add64_ns"], out["fparith.mul64_ns"] = probeFparith(ops, 2000)
			us, err := probeLinkSend(ckptFrameBytes, 256)
			if err != nil {
				return err
			}
			out["link.send_us_per_kb"] = us
			out["fault.corrupt_us"] = probeCorrupt(seed, c.plan.BER, ckptFrameBytes, 512)
			mp, err := probeModule(seed, c.plan.BER, c.m.Nodes[1].Mem)
			if err != nil {
				return err
			}
			out["module.snapshot_host_ms"] = float64(mp.snapHost) / float64(time.Millisecond)
			out["module.snapshot_sim_ms"] = float64(mp.snapSim) / float64(sim.Millisecond)
			out["module.restore_host_ms"] = float64(mp.restoreHost) / float64(time.Millisecond)
			return nil
		},
	}
}

// latticeWorkload is lattice_12cube at cfg. The host reference for the
// seed is computed once, untimed, in the parent; every repetition's
// field must hash to the reference field's SHA-256.
func latticeWorkload(cfg latticeConfig, seed int64) *batchWorkload {
	return &batchWorkload{
		shards: (1 << cfg.dim) / module.NodesPerModule,
		// A 12-cube build takes a second and holds 200 MiB: one per child.
		setupsPerChild: 1,
		setup: func(ctx context.Context, tr *recorder) (batchInstance, error) {
			return latticeSetup(ctx, cfg, seed, tr)
		},
		want: func() string { return fieldDigest(workloads.HostLattice4D(cfg.side, cfg.iters, seed)) },
		check: func(inst batchInstance, want string) error {
			if got := fieldDigest(inst.(*latticeRun).field()); got != want {
				return fmt.Errorf("lattice_12cube: field SHA-256 %s, HostLattice4D %s", got, want)
			}
			return nil
		},
		layers: func(inst batchInstance, tr *recorder, out map[string]float64) error {
			lr := inst.(*latticeRun)
			machineCounts(lr.m, out)
			var ops, rtx int64
			for id, n := range lr.ops {
				ops += n
				for _, l := range lr.m.Nodes[id].Links {
					rtx += l.Retransmits
				}
			}
			out["fparith.ops"] = float64(ops)
			out["link.retransmits"] = float64(rtx)
			out["memory.row_load_ns"] = probeRowLoad(lr.m.Nodes[0].Mem, 20000)
			out["fparith.add64_ns"], out["fparith.mul64_ns"] = probeFparith(lr.operands, 4)
			// One halo face: l³ sites of 8 bytes.
			face := 8 * lr.sites / lr.l[0]
			us, err := probeLinkSend(face, 4096)
			if err != nil {
				return err
			}
			out["link.send_us_per_kb"] = us
			return nil
		},
	}
}
