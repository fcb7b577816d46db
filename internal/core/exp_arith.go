package core

import (
	"context"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
	"tseries/internal/stats"
)

// arithRig builds a single node with operand rows staged in opposite
// banks (X at row 0 in bank A, Y at row 300 in bank B).
func arithRig(ctx context.Context) (*sim.Kernel, *node.Node) {
	k := sim.NewKernelCtx(ctx)
	nd := node.New(k, 0)
	for i := 0; i < memory.F64PerRow; i++ {
		nd.Mem.PokeF64(i, fparith.FromFloat64(float64(i)*0.5))
		nd.Mem.PokeF64(300*memory.F64PerRow+i, fparith.FromFloat64(float64(i)*0.25))
	}
	return k, nd
}

// E1NodePeak measures the node's floating-point rate with chained SAXPY
// forms: the adder and multiplier each retire one result per 125 ns, so
// the peak is 16 MFLOPS and a sustained row-after-row SAXPY run lands
// just below it (pipeline fill and row transfers are the only overhead).
func E1NodePeak(ctx context.Context) (*Result, error) {
	r := newResult("E1", "Node peak arithmetic rate")
	k, nd := arithRig(ctx)
	defer k.Close()
	const rows = 256
	var flops int64
	k.Go("saxpy", func(p *sim.Proc) {
		for i := 0; i < rows; i++ {
			rr, err := nd.RunForm(p, fpu.Op{
				Form: fpu.SAXPY, Prec: fpu.P64,
				X: 0, Y: 300, Z: 301, A: fparith.FromFloat64(2),
			})
			if err != nil {
				panic(err)
			}
			flops += int64(rr.Flops)
		}
	})
	end := k.Run(0)
	sustained := stats.MFLOPS(flops, sim.Duration(end))
	steady := 2 / sim.Cycle.Seconds() / 1e6

	t := stats.NewTable("Node arithmetic rate (64-bit SAXPY)",
		"quantity", "paper", "measured")
	t.Add("peak MFLOPS (adder+multiplier)", 16, steady)
	t.Add("sustained MFLOPS (row-chained)", "approaches 16", sustained)
	r.Table = t
	r.Metrics["peak_mflops"] = steady
	r.Metrics["sustained_mflops"] = sustained
	r.note("sustained rate is peak × 128/(128+13 fill + 6.4 row-transfer cycles)")
	return r, nil
}

// E7PipelineDepths recovers the pipeline depths from timing alone: the
// difference between an N=1 and N=1+k vector form is k cycles, and the
// N=1 time exposes the fill.
func E7PipelineDepths(ctx context.Context) (*Result, error) {
	r := newResult("E7", "Pipeline depths")
	measure := func(form fpu.Form, prec fpu.Precision) int {
		k, nd := arithRig(ctx)
		defer k.Close()
		var fillCycles int
		k.Go("m", func(p *sim.Proc) {
			r1, err := nd.RunForm(p, fpu.Op{Form: form, Prec: prec, X: 0, Y: 300, Z: 301, N: 1, A: fparith.FromFloat64(1)})
			if err != nil {
				panic(err)
			}
			// t(N=1) = loads + (fill+1)·cycle + store.
			overhead := 400*sim.Nanosecond + 400*sim.Nanosecond
			fillCycles = int((r1.Elapsed-overhead)/sim.Cycle) - 1
		})
		k.Run(0)
		return fillCycles
	}
	add64 := measure(fpu.VAdd, fpu.P64)
	mul64 := measure(fpu.VMul, fpu.P64)
	mul32 := measure(fpu.VMul, fpu.P32)
	saxpy64 := measure(fpu.SAXPY, fpu.P64)

	t := stats.NewTable("Pipeline depths recovered from first-result latency",
		"unit", "paper stages", "measured stages")
	t.Add("adder (64-bit)", 6, add64)
	t.Add("multiplier (64-bit)", 7, mul64)
	t.Add("multiplier (32-bit)", 5, mul32)
	t.Add("chained SAXPY (mul→add)", "7+6", saxpy64)
	r.Table = t
	r.Metrics["adder_stages"] = float64(add64)
	r.Metrics["mul64_stages"] = float64(mul64)
	r.Metrics["mul32_stages"] = float64(mul32)
	r.Metrics["saxpy_fill"] = float64(saxpy64)
	return r, nil
}

// E13VectorForms shows the feedback paths: DOT and SUM stream one
// element per cycle with the adder output fed back as an input — "a wide
// range of useful vector forms without memory reference limitations".
func E13VectorForms(ctx context.Context) (*Result, error) {
	r := newResult("E13", "Vector forms with feedback")
	k, nd := arithRig(ctx)
	defer k.Close()
	var dotRes, sumRes fpu.Result
	k.Go("m", func(p *sim.Proc) {
		var err error
		dotRes, err = nd.RunForm(p, fpu.Op{Form: fpu.Dot, Prec: fpu.P64, X: 0, Y: 300})
		if err != nil {
			panic(err)
		}
		sumRes, err = nd.RunForm(p, fpu.Op{Form: fpu.Sum, Prec: fpu.P64, X: 0})
		if err != nil {
			panic(err)
		}
	})
	k.Run(0)

	dotRate := stats.MFLOPS(int64(dotRes.Flops), dotRes.Elapsed)
	n := memory.F64PerRow
	// Expected dot value: Σ (0.5i)(0.25i) = 0.125·Σi².
	var want float64
	for i := 0; i < n; i++ {
		want += 0.5 * float64(i) * 0.25 * float64(i)
	}
	t := stats.NewTable("Reductions through the feedback path",
		"form", "elements", "time", "MFLOPS", "result ok")
	t.Add("DOT", n, dotRes.Elapsed.String(), dotRate,
		abs(dotRes.Scalar.Float64()-want) < 1e-9*want)
	t.Add("SUM", n, sumRes.Elapsed.String(), stats.MFLOPS(int64(sumRes.Flops), sumRes.Elapsed), true)
	r.Table = t
	r.Metrics["dot_mflops"] = dotRate
	r.Metrics["dot_streams_per_cycle"] = float64(n) * float64(sim.Cycle) / float64(dotRes.Elapsed)
	r.note("reductions add a fixed drain (combining the %d feedback partials), visible at short lengths only", 6)
	return r, nil
}

// A1SingleBank removes the dual-bank organisation: with one bank a
// dyadic form gets one operand per cycle, halving the streaming rate —
// the paper's §II argument for splitting memory into banks A and B.
func A1SingleBank(ctx context.Context) (*Result, error) {
	r := newResult("A1", "Single-bank memory ablation")
	run := func(single bool) sim.Duration {
		k, nd := arithRig(ctx)
		defer k.Close()
		nd.FPU.SingleBankMode = single
		var e sim.Duration
		k.Go("m", func(p *sim.Proc) {
			rr, err := nd.RunForm(p, fpu.Op{Form: fpu.VAdd, Prec: fpu.P64, X: 0, Y: 300, Z: 301})
			if err != nil {
				panic(err)
			}
			e = rr.Elapsed
		})
		k.Run(0)
		return e
	}
	dual := run(false)
	single := run(true)
	t := stats.NewTable("VADD of a full 128-element row",
		"memory organisation", "time", "MFLOPS")
	t.Add("two banks (A+B)", dual.String(), stats.MFLOPS(128, dual))
	t.Add("one bank", single.String(), stats.MFLOPS(128, single))
	r.Table = t
	r.Metrics["slowdown"] = float64(single) / float64(dual)
	r.note("one bank halves the element rate (plus serialised row loads)")
	return r, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func init() {
	register("E1", "Node peak arithmetic rate (16 MFLOPS, §II)", E1NodePeak)
	register("E7", "Pipeline depths: adder 6, multiplier 5/7 (§II Arithmetic)", E7PipelineDepths)
	register("E13", "Vector forms with feedback: DOT/SUM at pipe rate (§II)", E13VectorForms)
	register("A1", "Ablation: single-bank memory", A1SingleBank)
}
