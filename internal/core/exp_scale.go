package core

import (
	"context"

	"fmt"
	"math"
	"math/cmplx"

	"tseries/internal/cp"
	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
	"tseries/internal/stats"
	"tseries/internal/workloads"
)

// E14SharedBus reproduces the §I motivation: the same SAXPY sweep on the
// hypercube machine (per-node memory) and on a shared-bus multiprocessor
// whose bus carries four nodes' worth of operand traffic. The hypercube
// scales linearly; the bus saturates at four processors.
func E14SharedBus(ctx context.Context) (*Result, error) {
	r := newResult("E14", "Distributed memory vs shared bus")
	t := stats.NewTable("SAXPY sweep, 50 rows/processor",
		"processors", "hypercube MFLOPS", "shared-bus MFLOPS", "cube/bus")
	bus := workloads.BusSAXPY{}
	var crossover int
	for _, dim := range []int{0, 1, 2, 3, 4, 5, 6} {
		procs := 1 << uint(dim)
		cubeRes, err := workloads.DistributedSAXPY(ctx, dim, 50, 1)
		if err != nil {
			return nil, err
		}
		busRes := bus.Run(procs, 50, 1)
		ratio := cubeRes.MFLOPS() / busRes.MFLOPS()
		if ratio > 1.5 && crossover == 0 {
			crossover = procs
		}
		t.Add(procs, cubeRes.MFLOPS(), busRes.MFLOPS(), ratio)
		r.Metrics[fmt.Sprintf("cube_mflops_p%d", procs)] = cubeRes.MFLOPS()
		r.Metrics[fmt.Sprintf("bus_mflops_p%d", procs)] = busRes.MFLOPS()
	}
	r.Table = t
	r.Metrics["crossover_procs"] = float64(crossover)
	r.note("shared memory 'is expensive when scaled to large dimensions'; the bus plateaus once aggregate demand exceeds its bandwidth while the cube keeps scaling")
	return r, nil
}

// E15FFT runs the 1024-point FFT across machine sizes: all exchanges are
// nearest-neighbor on the cube (Figure 3's butterfly), and accuracy is
// checked against a host DFT.
func E15FFT(ctx context.Context) (*Result, error) {
	r := newResult("E15", "FFT on the butterfly mapping")
	const n = 1024
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(math.Sin(0.1*float64(i)), math.Cos(0.03*float64(i)))
	}
	want := workloads.HostDFT(in)
	t := stats.NewTable("1024-point FFT",
		"nodes", "time (ms)", "max |error|", "correct")
	for _, dim := range []int{0, 1, 2, 3, 4} {
		res, err := workloads.DistributedFFT(ctx, dim, in)
		if err != nil {
			return nil, err
		}
		maxErr := 0.0
		for i := range want {
			if e := cmplx.Abs(res.Out[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		ok := maxErr < 1e-7
		t.Add(res.Nodes, float64(res.Elapsed)/float64(sim.Millisecond), maxErr, ok)
		r.Metrics[fmt.Sprintf("fft_ms_p%d", res.Nodes)] = float64(res.Elapsed) / float64(sim.Millisecond)
	}
	r.Table = t
	r.note("every distributed butterfly stage exchanges with a direct cube neighbor; deeper cubes add log₂P exchange stages of shrinking blocks")
	return r, nil
}

// E16OverlapCrossover sweeps the number of vector forms executed per
// gathered vector: the control processor hides the 1.6 µs/element gather
// behind vector work once a vector enters about 13 operations — §II's
// "a vector should enter into about 13 operations while gathering the
// next vector".
func E16OverlapCrossover(ctx context.Context) (*Result, error) {
	r := newResult("E16", "Gather overlap crossover")
	gather := cp.GatherTime64(memory.F64PerRow)
	t := stats.NewTable("Gather of 128 elements overlapped with r vector forms",
		"forms per gather", "vector time", "overlapped total", "gather hidden %")
	crossover := 0
	for _, forms := range []int{1, 2, 4, 8, 11, 13, 16, 24, 32} {
		vec, total := overlapRun(ctx, forms)
		hidden := 100 * (1 - float64(total-vec)/float64(gather))
		if hidden > 99 && crossover == 0 {
			crossover = forms
		}
		t.Add(forms, vec.String(), total.String(), hidden)
	}
	r.Table = t
	r.Metrics["crossover_forms"] = float64(crossover)
	r.note("crossover at %d forms per gathered vector; the paper's rule of thumb is ~13 (each form streams 128 results in 16 µs against a 204.8 µs gather)", crossover)
	return r, nil
}

// overlapRun measures r vector forms with a concurrent 128-element
// gather; returns the pure vector time and the overlapped total.
func overlapRun(ctx context.Context, forms int) (vec, total sim.Duration) {
	prep := func() (*sim.Kernel, *node.Node, []int) {
		k := sim.NewKernelCtx(ctx)
		nd := node.New(k, 0)
		for i := 0; i < memory.F64PerRow; i++ {
			nd.Mem.PokeF64(i, fparith.FromInt64(1))
			nd.Mem.PokeF64(300*memory.F64PerRow+i, fparith.FromInt64(2))
		}
		idx := make([]int, memory.F64PerRow)
		for i := range idx {
			idx[i] = (i * 37) % 4096
		}
		return k, nd, idx
	}
	// Pure vector time.
	k1, nd1, _ := prep()
	defer k1.Close()
	k1.Go("vec", func(p *sim.Proc) {
		for i := 0; i < forms; i++ {
			if _, err := nd1.RunForm(p, fpu.Op{Form: fpu.SAXPY, Prec: fpu.P64, X: 0, Y: 300, Z: 301, A: fparith.FromFloat64(1)}); err != nil {
				panic(err)
			}
		}
	})
	vec = sim.Duration(k1.Run(0))
	// Overlapped with the gather.
	k2, nd2, idx := prep()
	defer k2.Close()
	k2.Go("vec", func(p *sim.Proc) {
		for i := 0; i < forms; i++ {
			if _, err := nd2.RunForm(p, fpu.Op{Form: fpu.SAXPY, Prec: fpu.P64, X: 0, Y: 300, Z: 301, A: fparith.FromFloat64(1)}); err != nil {
				panic(err)
			}
		}
	})
	k2.Go("gather", func(p *sim.Proc) {
		if err := nd2.CP.Gather64(p, 500*memory.F64PerRow, idx); err != nil {
			panic(err)
		}
	})
	total = sim.Duration(k2.Run(0))
	return vec, total
}

func init() {
	register("E14", "Distributed memory vs shared bus (§I motivation)", E14SharedBus)
	register("E15", "FFT on the butterfly mapping (Figure 3)", E15FFT)
	register("E16", "Gather overlap crossover at ~13 ops/word (§II)", E16OverlapCrossover)
}
