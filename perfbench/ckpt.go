package main

import (
	"context"
	"fmt"
	"math/rand"

	"tseries/internal/fault"
	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// The ckpt_recovery workload is workloads.FaultTolerantSAXPY, driven
// step by step from here so that machine build and input loading
// (setup) are timed apart from the simulation (run), and so that the
// traced run can put a span around every call into a layer. The body
// below mirrors the library's ftBody call for call; TestCkptMirrorsLibrary
// pins that the two produce identical simulated statistics.

// Memory layout, identical to workloads' fault-tolerant SAXPY.
const (
	ftXRow       = 0
	ftCtrRow     = 298
	ftInRow      = 299
	ftYRow       = 300
	ftOutRowBase = 301
	ftCtrWord    = ftCtrRow * (memory.RowBytes / 4)
)

type ckptConfig struct {
	dim, phases, rowsPerPhase int
	pad, ckpt                 sim.Duration
}

// kernelWorkers is the host workers executing a batch machine's logical
// shards. On a two-CPU host a second worker makes every window barrier
// wait on whichever CPU the hypervisor or the garbage collector took,
// which spreads run times five times wider.
const kernelWorkers = 1

// ckptFull is the E17/E19 shape with the phase count raised to a few
// seconds of host time per run: two modules, so two logical shards.
var ckptFull = ckptConfig{dim: 4, phases: 24, rowsPerPhase: 2, pad: 2 * sim.Second, ckpt: 4 * sim.Second}

// ckptTiny is the smoke-test size: the same machine and plan, 4 phases.
var ckptTiny = ckptConfig{dim: 4, phases: 4, rowsPerPhase: 2, pad: 2 * sim.Second, ckpt: 4 * sim.Second}

// ckptPlan derives the run's fault plan from seed: wire bit errors at a
// BER of 1e-6 and one declared crash of a node other than the
// checkpointing node 0, between 20 s and 30 s of simulated time — after
// the initial snapshot, which on this machine ends near 15 s under this
// BER. (A crash inside the initial snapshot fails the run with
// "snapshot stalled"; see README.md.)
func ckptPlan(seed int64) *fault.Plan {
	r := rand.New(rand.NewSource(seed))
	return &fault.Plan{Seed: uint64(seed), BER: 1e-6, Events: []fault.Event{{
		At:   sim.Duration(20000+r.Intn(10000)) * sim.Millisecond,
		Kind: fault.Crash,
		Node: 1 + r.Intn(15),
	}}}
}

// ckptRun is one built, loaded machine waiting to run.
type ckptRun struct {
	cfg  ckptConfig
	plan *fault.Plan
	m    *machine.Machine
	sv   *machine.Supervisor
}

// ckptSetup builds the machine (machine.NewAuto), attaches the
// supervisor and fault plan, and loads the operands.
func ckptSetup(ctx context.Context, cfg ckptConfig, plan *fault.Plan, tr *recorder) (*ckptRun, error) {
	if cfg.phases < 1 || ftOutRowBase+cfg.phases > memory.NumRows {
		return nil, fmt.Errorf("ckpt_recovery: phase count %d out of range", cfg.phases)
	}
	sp := tr.start("machine.build", nil, 0, 0)
	m, err := machine.NewAuto(ctx, cfg.dim, kernelWorkers)
	tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	sv := machine.NewSupervisor(m)
	m.ArmFaults(plan, sv)
	for _, nd := range m.Nodes {
		for i := 0; i < memory.F64PerRow; i++ {
			nd.Mem.PokeF64(i, fparith.FromInt64(int64(i)))
			nd.Mem.PokeF64(ftYRow*memory.F64PerRow+i, fparith.FromInt64(3))
		}
		nd.Mem.PokeWord(ftCtrWord, 0)
	}
	return &ckptRun{cfg: cfg, plan: plan, m: m, sv: sv}, nil
}

// run simulates to completion under supervision and returns the
// simulated end time.
func (c *ckptRun) run(tr *recorder) (sim.Time, error) {
	root := tr.start("machine.run", nil, -1, 0)
	var runErr error
	c.m.K.Go("ftsaxpy/supervise", func(p *sim.Proc) {
		runErr = c.sv.Run(p, func(bp *sim.Proc, id int) error {
			return c.body(bp, id, tr, root)
		})
	})
	end := c.m.Run(0)
	tr.end(root, end)
	if err := c.m.Err(); err != nil {
		return end, err
	}
	return end, runErr
}

// body is the per-node program, the library's ftBody with spans.
func (c *ckptRun) body(bp *sim.Proc, id int, tr *recorder, root *span) error {
	m, cfg := c.m, c.cfg
	nd := m.Nodes[id]
	ep := m.Endpoint(id)
	ctr, err := nd.Mem.ReadWord(bp, ftCtrWord)
	if err != nil {
		return err
	}
	for ph := int(ctr); ph < cfg.phases; ph++ {
		if cfg.pad > 0 {
			bp.Wait(cfg.pad)
		}
		for r := 0; r < cfg.rowsPerPhase; r++ {
			sp := tr.start("fpu.run_form", root, id, bp.Now())
			_, err := nd.RunForm(bp, fpu.Op{
				Form: fpu.SAXPY, Prec: fpu.P64,
				X: ftXRow, Y: ftYRow, Z: ftOutRowBase + ph,
				A: fparith.FromFloat64(2),
			})
			tr.end(sp, bp.Now())
			if err != nil {
				return err
			}
		}
		if cfg.dim > 0 {
			peer := id ^ (1 << uint(ph%cfg.dim))
			out := make([]fparith.F64, memory.F64PerRow)
			for i := range out {
				out[i] = nd.Mem.PeekF64((ftOutRowBase+ph)*memory.F64PerRow + i)
			}
			tag := 4000 + ph%8
			sp := tr.start("comm.send", root, id, bp.Now())
			err := ep.SendF64(bp, peer, tag, out)
			tr.end(sp, bp.Now())
			if err != nil {
				return err
			}
			sp = tr.start("comm.recv", root, id, bp.Now())
			src, theirs := ep.RecvF64(bp, tag)
			tr.end(sp, bp.Now())
			if src != peer {
				return fmt.Errorf("ckpt_recovery: node %d phase %d: exchange from %d, want %d", id, ph, src, peer)
			}
			if len(theirs) != memory.F64PerRow {
				return fmt.Errorf("ckpt_recovery: node %d phase %d: short exchange (%d elements)", id, ph, len(theirs))
			}
			for i, v := range theirs {
				nd.Mem.PokeF64(ftInRow*memory.F64PerRow+i, v)
			}
		}
		nd.Mem.WriteWord(bp, ftCtrWord, uint32(ph+1))
		sp := tr.start("comm.barrier", root, id, bp.Now())
		err := ep.Barrier(bp, 1000+(ph%8)*64)
		tr.end(sp, bp.Now())
		if err != nil {
			return err
		}
		if id == 0 {
			t0 := bp.Now()
			sp := tr.start("machine.checkpoint_check", root, id, t0)
			err := c.sv.MaybeCheckpoint(bp, cfg.ckpt)
			if bp.Now() > t0 {
				tr.endAs(sp, "machine.checkpoint", bp.Now())
			} else {
				tr.end(sp, bp.Now())
			}
			if err != nil {
				return err
			}
		}
		sp = tr.start("comm.barrier", root, id, bp.Now())
		err = ep.Barrier(bp, 1000+(ph%8)*64+32)
		tr.end(sp, bp.Now())
		if err != nil {
			return err
		}
	}
	return nil
}

// correct is the library's bit-exact verdict over every node's result
// rows, exchanged row and progress counter.
func (c *ckptRun) correct() bool {
	for _, nd := range c.m.Nodes {
		if nd.Mem.PeekWord(ftCtrWord) != uint32(c.cfg.phases) {
			return false
		}
		for i := 0; i < memory.F64PerRow; i++ {
			want := fparith.FromInt64(int64(2*i + 3))
			for ph := 0; ph < c.cfg.phases; ph++ {
				if nd.Mem.PeekF64((ftOutRowBase+ph)*memory.F64PerRow+i) != want {
					return false
				}
			}
			if c.cfg.dim > 0 && nd.Mem.PeekF64(ftInRow*memory.F64PerRow+i) != want {
				return false
			}
		}
	}
	return true
}

// simStats are the simulated statistics a simulator-only change must
// leave identical, and which tracing must not disturb.
type simStats struct {
	ElapsedPs   int64
	Events      int64
	LinkBytes   int64
	Checkpoints int64
	Rollbacks   int64
}

func (c *ckptRun) simStats(end sim.Time) simStats {
	st := c.m.SimStats()
	return simStats{
		ElapsedPs:   int64(end),
		Events:      st.Events,
		LinkBytes:   st.Counters["link.bytes"],
		Checkpoints: int64(c.m.Modules[0].SnapshotsTaken),
		Rollbacks:   c.sv.Rollbacks,
	}
}
