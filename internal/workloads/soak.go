package workloads

import (
	"context"

	"fmt"

	"tseries/internal/fault"
	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/node"
	"tseries/internal/sim"
	"tseries/internal/stats"
)

// The chaos-soak workload: a phased SAXPY sweep that runs under the
// SELF-HEALING supervisor (heartbeat detection + spare remapping)
// while a chaos recipe injects silent faults the machine is never told
// about. The run is organized in epochs; at the end of each epoch every
// image verifies its results analytically and the lead image
// checkpoints. After the run the workload's memory fingerprint is
// compared bit-for-bit against a fault-free golden twin — the same
// machine, same spares, same program, no faults — so surviving chaos
// must mean *numerically indistinguishable from never having faulted*.
//
// Memory layout (rows of 128 64-bit elements):
//
//	row 0        X operand, element i holds the value i
//	row 298      word 0 is the phase progress counter (checkpointed!)
//	row 299      landing area for the ring predecessor's exchanged row
//	row 300      Y operand, all elements 3
//	row 301+ph   phase ph's result row, (ph+2)·i+3 after SAXPY A=ph+2
//
// The node's published progress word (module.ProgressWord, last word of
// RAM) mirrors the phase counter so heartbeats carry real progress.
const (
	skXRow       = 0
	skCtrRow     = 298
	skInRow      = 299
	skYRow       = 300
	skOutRowBase = 301

	skCtrWord = skCtrRow * (memory.RowBytes / 4)
)

// SoakParams configures a chaos soak.
type SoakParams struct {
	Dim            int
	Epochs         int
	PhasesPerEpoch int
	RowsPerPhase   int
	Pad            sim.Duration // synthetic compute per phase
	Spares         int          // spare slots per module
	Chaos          *fault.Chaos // randomized recipe (expanded per machine)
	Plan           *fault.Plan  // scripted plan; overrides Chaos when set
}

// SoakResult reports a chaos-soak run and its golden-twin comparison.
type SoakResult struct {
	Images  int // workload-visible positions (nodes minus spares)
	Epochs  int
	Elapsed sim.Duration
	// Correct means every epoch's analytic verification passed AND the
	// final fingerprint matches the fault-free golden twin's.
	Correct bool
	// Fingerprint/Golden are the end-of-run memory digests of the chaos
	// run and the fault-free twin.
	Fingerprint uint64
	Golden      uint64
	// Healing history.
	Remaps       int64
	Degraded     int64
	Rollbacks    int64
	DetectEvents int64
	DetectAvg    sim.Duration // mean confirm latency across detections
	LastRecovery sim.Duration
	Checkpoints  int
	HealLog      []string
	Faults       stats.FaultCounters
	// Mem is the machine's host-footprint report: sparse node-memory
	// residency and the system disks' checkpoint dedup counters.
	Mem   machine.MemStats
	Stats sim.Stats
	// LeakedProcs is Spawned − Finished − live daemons at exit; the
	// epoch invariant demands zero.
	LeakedProcs int64
	// DiskUnitsHeld is the sum of disk resource units still held at
	// exit; the epoch invariant demands zero.
	DiskUnitsHeld int
}

func init() {
	RegisterFunc("soak", []string{"dim", "reps", "phases", "rows", "pad", "chaos"}, func(cfg Config) (Report, error) {
		res, err := Soak(cfg.Context(), SoakParams{
			Dim:            cfg.Dim,
			Epochs:         cfg.Reps,
			PhasesPerEpoch: cfg.Phases,
			RowsPerPhase:   cfg.Rows/25 + 1,
			Pad:            cfg.Pad,
			Spares:         1,
			Chaos:          cfg.Chaos,
		})
		if err != nil {
			return Report{}, err
		}
		phases := res.Epochs * cfg.Phases
		flops := int64(phases) * int64(cfg.Rows/25+1) * int64(res.Images) * 2 * memory.F64PerRow
		rep := newReport("soak", res.Images, res.Elapsed, flops, res.Stats)
		rep.Metrics["remaps"] = float64(res.Remaps)
		rep.Metrics["degraded"] = float64(res.Degraded)
		rep.Metrics["rollbacks"] = float64(res.Rollbacks)
		rep.Metrics["detect_events"] = float64(res.DetectEvents)
		rep.Metrics["detect_ms"] = float64(res.DetectAvg) / float64(sim.Millisecond)
		rep.Metrics["recovery_ms"] = float64(res.LastRecovery) / float64(sim.Millisecond)
		rep.Metrics["checkpoints"] = float64(res.Checkpoints)
		mem := res.Mem
		rep.Mem = &mem
		if !res.Correct {
			return rep, fmt.Errorf("workloads: soak diverged from fault-free golden (got %#x, want %#x)", res.Fingerprint, res.Golden)
		}
		rep.Summary = fmt.Sprintf("Soak: %d epochs on %d images: %v simulated, %d remaps, %d rollbacks, %d detections, golden match",
			res.Epochs, res.Images, res.Elapsed, res.Remaps, res.Rollbacks, res.DetectEvents)
		return rep, nil
	})
}

// Soak runs the chaos scenario and its fault-free golden twin, and
// compares their final states.
func Soak(ctx context.Context, params SoakParams) (SoakResult, error) {
	if params.Epochs < 1 || params.PhasesPerEpoch < 1 {
		return SoakResult{}, fmt.Errorf("workloads: soak needs at least one epoch and one phase")
	}
	total := params.Epochs * params.PhasesPerEpoch
	if skOutRowBase+total >= memory.NumRows-1 {
		return SoakResult{}, fmt.Errorf("workloads: %d soak phases overflow node memory", total)
	}
	plan := params.Plan
	golden, err := soakRun(ctx, params, nil)
	if err != nil {
		return SoakResult{}, fmt.Errorf("workloads: fault-free golden run failed: %w", err)
	}
	if plan == nil && params.Chaos == nil {
		// Nothing to soak against: the run IS the golden.
		golden.Golden = golden.Fingerprint
		golden.Correct = golden.Correct && golden.LeakedProcs == 0 && golden.DiskUnitsHeld == 0
		return golden, nil
	}
	res, err := soakRun(ctx, params, plan)
	if err != nil {
		return SoakResult{}, err
	}
	res.Golden = golden.Fingerprint
	res.Correct = res.Correct &&
		res.Fingerprint == res.Golden &&
		res.LeakedProcs == 0 &&
		res.DiskUnitsHeld == 0
	return res, nil
}

// soakRun executes one soak instance. plan nil with params.Chaos set
// expands the recipe; plan nil with no chaos runs fault-free (the
// golden twin).
func soakRun(ctx context.Context, params SoakParams, plan *fault.Plan) (SoakResult, error) {
	total := params.Epochs * params.PhasesPerEpoch
	m, err := machine.NewAuto(ctx, params.Dim, KernelShardsFrom(ctx))
	if err != nil {
		return SoakResult{}, err
	}
	defer m.Close()
	m.Spec.Recovery.SpareNodes = params.Spares
	sv := machine.NewSupervisor(m)
	h, err := machine.NewHealer(m, sv)
	if err != nil {
		return SoakResult{}, err
	}
	if plan == nil && params.Chaos != nil {
		plan = params.Chaos.Expand(len(m.Nodes), m.Dim)
	}
	m.ArmFaults(plan, sv)

	for _, nd := range m.Nodes {
		for i := 0; i < memory.F64PerRow; i++ {
			nd.Mem.PokeF64(i, fparith.FromInt64(int64(i)))
			nd.Mem.PokeF64(skYRow*memory.F64PerRow+i, fparith.FromInt64(3))
		}
		nd.Mem.PokeWord(skCtrWord, 0)
		nd.Mem.PokeWord(module.ProgressWord, 0)
	}

	imgs := h.Images()
	pos := map[int]int{}
	for i, img := range imgs {
		pos[img] = i
	}

	var verifyErr error
	var runErr error
	m.K.Go("soak/supervise", func(p *sim.Proc) {
		runErr = h.Run(p, func(bp *sim.Proc, img int) error {
			err := soakBody(bp, h, sv, img, imgs, pos, params, total)
			if err != nil && verifyErr == nil {
				verifyErr = err
			}
			return err
		})
	})
	end := m.Run(0)
	if err := m.Err(); err != nil {
		return SoakResult{}, err // canceled: results are partial
	}
	if runErr != nil {
		return SoakResult{}, runErr
	}
	_ = verifyErr

	ks := m.SimStats()
	res := SoakResult{
		Images:       len(imgs),
		Epochs:       params.Epochs,
		Elapsed:      sim.Duration(end),
		Correct:      true,
		Remaps:       h.Remaps,
		Degraded:     h.Degraded,
		Rollbacks:    sv.Rollbacks,
		DetectEvents: ks.Counters["heal.detect_events"],
		LastRecovery: sv.LastRecovery,
		Checkpoints:  m.Modules[0].SnapshotsTaken,
		HealLog:      append([]string(nil), h.Events...),
		Faults:       m.FaultReport(plan, sv),
		Mem:          m.MemStats(),
		Stats:        ks,
	}
	if res.DetectEvents > 0 {
		res.DetectAvg = sim.Duration(ks.Counters["heal.detect_ns"]/res.DetectEvents) * sim.Nanosecond
	}
	// Epoch invariants, evaluated at exit: nothing leaked.
	res.LeakedProcs = leakedProcs(ks)
	for _, r := range ks.Resources {
		res.DiskUnitsHeld += r.InUse
	}
	// Final analytic verification + fingerprint over every image.
	for _, img := range imgs {
		nd := h.NodeOf(img)
		if nd.Mem.PeekWord(skCtrWord) != uint32(total) {
			res.Correct = false
		}
		for ph := 0; ph < total; ph++ {
			for i := 0; i < memory.F64PerRow; i++ {
				want := fparith.FromInt64(int64((ph+2)*i + 3))
				if nd.Mem.PeekF64((skOutRowBase+ph)*memory.F64PerRow+i) != want {
					res.Correct = false
				}
			}
		}
	}
	res.Fingerprint = soakFingerprint(h, imgs, total)
	return res, nil
}

// soakBody is the per-image program; restart-safe exactly like the
// recovery workload, but iterating the Gray ring of images rather than
// physical nodes, so it keeps working after a remap.
func soakBody(bp *sim.Proc, h *machine.Healer, sv *machine.Supervisor, img int, imgs []int, pos map[int]int, params SoakParams, total int) error {
	nd := h.NodeOf(img)
	lead := imgs[0]
	n := len(imgs)
	ctr, err := nd.Mem.ReadWord(bp, skCtrWord)
	if err != nil {
		return err
	}
	for ph := int(ctr); ph < total; ph++ {
		if params.Pad > 0 {
			bp.Wait(params.Pad)
		}
		for r := 0; r < params.RowsPerPhase; r++ {
			if _, err := nd.RunForm(bp, fpu.Op{
				Form: fpu.SAXPY, Prec: fpu.P64,
				X: skXRow, Y: skYRow, Z: skOutRowBase + ph,
				A: fparith.FromInt64(int64(ph + 2)),
			}); err != nil {
				return err
			}
		}
		if n > 1 {
			// Exchange the result row around the logical ring.
			succ := imgs[(pos[img]+1)%n]
			pred := imgs[(pos[img]-1+n)%n]
			out := make([]fparith.F64, memory.F64PerRow)
			for i := range out {
				out[i] = nd.Mem.PeekF64((skOutRowBase+ph)*memory.F64PerRow + i)
			}
			tag := 5000 + ph%8
			if err := h.EndpointOf(img).SendF64(bp, h.PhysOf(succ), tag, out); err != nil {
				return err
			}
			src, theirs := h.EndpointOf(img).RecvF64(bp, tag)
			if src != h.PhysOf(pred) {
				return fmt.Errorf("workloads: image %d phase %d: exchange from node %d, want node %d", img, ph, src, h.PhysOf(pred))
			}
			if len(theirs) != memory.F64PerRow {
				return fmt.Errorf("workloads: image %d phase %d: short exchange (%d elements)", img, ph, len(theirs))
			}
			for i, v := range theirs {
				nd.Mem.PokeF64(skInRow*memory.F64PerRow+i, v)
			}
		}
		nd.Mem.WriteWord(bp, skCtrWord, uint32(ph+1))
		// Publish progress where the heartbeats can see it.
		nd.Mem.WriteWord(bp, module.ProgressWord, uint32(ph+1))
		if err := soakBarrier(bp, h, imgs, img, 6000+(ph%8)*4); err != nil {
			return err
		}
		if (ph+1)%params.PhasesPerEpoch == 0 {
			// Epoch boundary: verify everything computed so far, then
			// checkpoint the verified state.
			if err := soakVerify(nd, ph+1); err != nil {
				return err
			}
			if img == lead {
				if err := sv.Checkpoint(bp); err != nil {
					return err
				}
			}
			if err := soakBarrier(bp, h, imgs, img, 6000+(ph%8)*4+2); err != nil {
				return err
			}
		}
	}
	return nil
}

// soakVerify checks every completed phase's result row analytically.
func soakVerify(nd *node.Node, phases int) error {
	for ph := 0; ph < phases; ph++ {
		for i := 0; i < memory.F64PerRow; i++ {
			want := fparith.FromInt64(int64((ph+2)*i + 3))
			if nd.Mem.PeekF64((skOutRowBase+ph)*memory.F64PerRow+i) != want {
				return fmt.Errorf("workloads: soak epoch verification failed at phase %d element %d", ph, i)
			}
		}
	}
	return nil
}

// soakBarrier synchronizes the images (not the physical nodes — spares
// run nothing) by centralized gather-and-release through the lead
// image. Uses tags tag and tag+1.
func soakBarrier(bp *sim.Proc, h *machine.Healer, imgs []int, img, tag int) error {
	if len(imgs) < 2 {
		return nil
	}
	lead := imgs[0]
	ep := h.EndpointOf(img)
	if img == lead {
		for i := 1; i < len(imgs); i++ {
			ep.Recv(bp, tag)
		}
		for _, o := range imgs[1:] {
			if err := ep.Send(bp, h.PhysOf(o), tag+1, []byte{1}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ep.Send(bp, h.PhysOf(lead), tag, []byte{1}); err != nil {
		return err
	}
	ep.Recv(bp, tag+1)
	return nil
}

// soakFingerprint digests (FNV-1a) every image's observable state in
// image order: result rows, exchanged row, and phase counter. Two runs
// with equal fingerprints finished in bit-identical workload state.
func soakFingerprint(h *machine.Healer, imgs []int, total int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	hash := uint64(offset)
	mix := func(b byte) {
		hash ^= uint64(b)
		hash *= prime
	}
	mix32 := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			mix(byte(v >> s))
		}
	}
	for _, img := range imgs {
		nd := h.NodeOf(img)
		mix32(uint32(img))
		mix32(nd.Mem.PeekWord(skCtrWord))
		for ph := 0; ph < total; ph++ {
			for _, b := range nd.Mem.PeekBytes((skOutRowBase+ph)*memory.RowBytes, memory.RowBytes) {
				mix(b)
			}
		}
		for _, b := range nd.Mem.PeekBytes(skInRow*memory.RowBytes, memory.RowBytes) {
			mix(b)
		}
	}
	return hash
}

// leakedProcs is the process-accounting invariant: every spawned
// non-daemon process either finished or was killed (which counts as
// finished); anything still alive after the run leaked.
func leakedProcs(ks sim.Stats) int64 {
	return int64(ks.LiveProcs)
}
