package main

import (
	"fmt"
	"time"

	"tseries/internal/fault"
	"tseries/internal/fparith"
	"tseries/internal/link"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/sim"
)

// Probes time one layer's public function on the shapes the workload
// feeds it: the checkpoint chunk frame for link and fault, the
// workload's own memory image for memory and module, the lattice's own
// operand stream for fparith. They run only in the traced run, after
// its first repetition, on kernels of their own.

// ckptFrameBytes is one checkpoint-stream frame: a 4-byte thread header
// plus one module.SnapshotChunk of node memory.
const ckptFrameBytes = 4 + module.SnapshotChunk

// probeLinkSend sends frames of n bytes over one connected sublink pair
// and returns host µs per KiB carried.
func probeLinkSend(n, frames int) (float64, error) {
	k := sim.NewKernel()
	a, b := link.NewLink(k, "probe/a"), link.NewLink(k, "probe/b")
	if err := link.Connect(a.Sublink(0), b.Sublink(0)); err != nil {
		return 0, err
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var sendErr error
	k.Go("probe/tx", func(p *sim.Proc) {
		for i := 0; i < frames && sendErr == nil; i++ {
			sendErr = a.Sublink(0).Send(p, data)
		}
	})
	k.Go("probe/rx", func(p *sim.Proc) {
		for i := 0; i < frames; i++ {
			b.Sublink(0).Recv(p)
		}
	})
	t0 := time.Now()
	k.Run(0)
	host := time.Since(t0)
	if sendErr != nil {
		return 0, sendErr
	}
	return float64(host) / float64(time.Microsecond) / (float64(n*frames) / 1024), nil
}

// probeCorrupt runs fault.Plan.Corrupt over frames of n bytes at ber and
// returns host µs per call.
func probeCorrupt(seed int64, ber float64, n, frames int) float64 {
	pl := &fault.Plan{Seed: uint64(seed), BER: ber}
	data := make([]byte, n)
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		pl.Corrupt("probe/sub0", data)
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(frames)
}

// copyResident copies the rows src has materialized into dst and
// returns their numbers.
func copyResident(dst, src *memory.Memory) []int {
	var rows []int
	for r := 0; r < memory.NumRows; r++ {
		if src.RowResident(r) {
			dst.PokeBytes(r*memory.RowBytes, src.PeekBytes(r*memory.RowBytes, memory.RowBytes))
			rows = append(rows, r)
		}
	}
	return rows
}

// probeRowLoad copies the resident rows of src into a fresh memory and
// times Memory.LoadRow over them; host ns per row loaded.
func probeRowLoad(src *memory.Memory, loads int) float64 {
	k := sim.NewKernel()
	dst := memory.New(k, "probe/mem")
	rows := copyResident(dst, src)
	if len(rows) == 0 {
		rows = []int{0}
	}
	var host time.Duration
	n := 0
	k.Go("probe/rowload", func(p *sim.Proc) {
		var reg memory.VectorReg
		t0 := time.Now()
		for ; n < loads; n++ {
			if err := dst.LoadRow(p, rows[n%len(rows)], &reg); err != nil {
				break
			}
		}
		host = time.Since(t0)
	})
	k.Run(0)
	return float64(host) / float64(max(n, 1))
}

// probeFparith replays an operand stream through Add64 and Mul64 and
// returns host ns per operation of each.
func probeFparith(ops [][2]fparith.F64, passes int) (addNs, mulNs float64) {
	if len(ops) == 0 {
		return 0, 0
	}
	var sink fparith.F64
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, o := range ops {
			sink ^= fparith.Add64(o[0], o[1])
		}
	}
	add := time.Since(t0)
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for _, o := range ops {
			sink ^= fparith.Mul64(o[0], o[1])
		}
	}
	mul := time.Since(t0)
	probeSink = sink
	n := float64(len(ops) * passes)
	return float64(add) / n, float64(mul) / n
}

// probeSink keeps the probe's arithmetic observable to the compiler.
var probeSink fparith.F64

// moduleProbe is one module snapshot and restore of a loaded image.
type moduleProbe struct {
	snapHost, restoreHost time.Duration
	snapSim               sim.Duration
}

// probeModule builds a one-module machine, loads every node with src's
// resident rows, arms wire errors at ber and times Module.Snapshot and
// Module.Restore of it.
func probeModule(seed int64, ber float64, src *memory.Memory) (moduleProbe, error) {
	var out moduleProbe
	m, err := machine.New(sim.NewKernel(), 3)
	if err != nil {
		return out, err
	}
	m.ArmFaults(&fault.Plan{Seed: uint64(seed), BER: ber}, machine.NewSupervisor(m))
	for _, nd := range m.Nodes {
		copyResident(nd.Mem, src)
	}
	mod := m.Modules[0]
	var probeErr error
	m.K.Go("probe/module", func(p *sim.Proc) {
		t0, s0 := time.Now(), p.Now()
		snap, err := mod.Snapshot(p)
		out.snapHost, out.snapSim = time.Since(t0), p.Now().Sub(s0)
		if err != nil {
			probeErr = err
			return
		}
		t0 = time.Now()
		probeErr = mod.Restore(p, snap)
		out.restoreHost = time.Since(t0)
	})
	m.Run(0)
	if probeErr != nil {
		return out, fmt.Errorf("module probe: %w", probeErr)
	}
	return out, nil
}
