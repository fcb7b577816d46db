package core

import (
	"context"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
	"tseries/internal/stats"
	"tseries/internal/workloads"
)

// E2Bandwidths reproduces Figure 2: the five bandwidth figures of the
// node, each measured by timing an actual transfer in the simulator.
func E2Bandwidths(ctx context.Context) (*Result, error) {
	r := newResult("E2", "Processor bandwidths (Figure 2)")

	// Link: one 64 KB DMA transfer between two nodes.
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	a, b := node.New(k, 0), node.New(k, 1)
	if err := link.Connect(a.Sublink(0), b.Sublink(0)); err != nil {
		return nil, err
	}
	payload := make([]byte, 64*1024)
	var linkTime sim.Duration
	k.Go("tx", func(p *sim.Proc) {
		start := p.Now()
		if err := a.Sublink(0).Send(p, payload); err != nil {
			panic(err)
		}
		linkTime = p.Now().Sub(start)
	})
	k.Go("rx", func(p *sim.Proc) { b.Sublink(0).Recv(p) })
	k.Run(0)
	linkMB := stats.MBps(int64(len(payload)), linkTime)

	// Control processor ↔ memory through the random-access port.
	k2 := sim.NewKernelCtx(ctx)
	defer k2.Close()
	nd := node.New(k2, 0)
	const words = 2000
	var cpTime sim.Duration
	k2.Go("cp", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < words; i++ {
			if _, err := nd.Mem.ReadWord(p, i); err != nil {
				panic(err)
			}
		}
		cpTime = p.Now().Sub(start)
	})
	k2.Run(0)
	cpMB := stats.MBps(words*4, cpTime)

	// Memory ↔ vector register: row transfers.
	k3 := sim.NewKernelCtx(ctx)
	defer k3.Close()
	nd3 := node.New(k3, 0)
	var reg memory.VectorReg
	const rows = 200
	var rowTime sim.Duration
	k3.Go("vec", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < rows; i++ {
			if err := nd3.Mem.LoadRow(p, i%memory.NumRows, &reg); err != nil {
				panic(err)
			}
		}
		rowTime = p.Now().Sub(start)
	})
	k3.Run(0)
	rowMB := stats.MBps(rows*memory.RowBytes, rowTime)

	// Vector registers → arithmetic unit: two inputs and one output per
	// cycle in 64-bit mode; measured from the marginal per-element time
	// of a dyadic form.
	k4 := sim.NewKernelCtx(ctx)
	defer k4.Close()
	nd4 := node.New(k4, 0)
	for i := 0; i < memory.F64PerRow; i++ {
		nd4.Mem.PokeF64(i, fparith.FromInt64(1))
		nd4.Mem.PokeF64(300*memory.F64PerRow+i, fparith.FromInt64(2))
	}
	var t64, t128 sim.Duration
	k4.Go("m", func(p *sim.Proc) {
		r1, err := nd4.RunForm(p, fpu.Op{Form: fpu.VAdd, Prec: fpu.P64, X: 0, Y: 300, Z: 301, N: 64})
		if err != nil {
			panic(err)
		}
		t64 = r1.Elapsed
		r2, err := nd4.RunForm(p, fpu.Op{Form: fpu.VAdd, Prec: fpu.P64, X: 0, Y: 300, Z: 301, N: 128})
		if err != nil {
			panic(err)
		}
		t128 = r2.Elapsed
	})
	k4.Run(0)
	perElem := (t128 - t64) / 64
	regMB := stats.MBps(3*8, perElem) // 2 in + 1 out, 8 bytes each

	// Memory → arithmetic: each bank feeds one 64-bit operand per cycle.
	bankMB := stats.MBps(8, sim.Cycle)

	t := stats.NewTable("Figure 2 bandwidths",
		"path", "paper MB/s", "measured MB/s")
	t.Add("link (per direction)", 0.5, linkMB)
	t.Add("control processor ↔ memory", 10, cpMB)
	t.Add("memory ↔ vector register (row)", 2560, rowMB)
	t.Add("vector registers ↔ arithmetic", 192, regMB)
	t.Add("one bank → arithmetic", 64, bankMB)
	r.Table = t
	r.Metrics["link_MBps"] = linkMB
	r.Metrics["cp_MBps"] = cpMB
	r.Metrics["row_MBps"] = rowMB
	r.Metrics["vreg_MBps"] = regMB
	r.Metrics["bank_MBps"] = bankMB
	return r, nil
}

// E3DualPortMemory times the two ports directly: a 32-bit word every
// 400 ns on the random-access port, an entire 1024-byte row in the same
// 400 ns on the vector port.
func E3DualPortMemory(ctx context.Context) (*Result, error) {
	r := newResult("E3", "Dual-port memory")
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	nd := node.New(k, 0)
	var wordT, rowT sim.Duration
	k.Go("m", func(p *sim.Proc) {
		s := p.Now()
		if _, err := nd.Mem.ReadWord(p, 7); err != nil {
			panic(err)
		}
		wordT = p.Now().Sub(s)
		var reg memory.VectorReg
		s = p.Now()
		if err := nd.Mem.LoadRow(p, 7, &reg); err != nil {
			panic(err)
		}
		rowT = p.Now().Sub(s)
	})
	k.Run(0)
	t := stats.NewTable("Access times",
		"access", "bytes", "paper", "measured")
	t.Add("random-access word", 4, "400 ns", wordT.String())
	t.Add("vector-port row", memory.RowBytes, "400 ns", rowT.String())
	r.Table = t
	r.Metrics["word_ns"] = wordT.Nanoseconds()
	r.Metrics["row_ns"] = rowT.Nanoseconds()
	r.note("a vector register loads an entire row 'in the same time that it would have taken to read or write a single 32-bit word'")
	return r, nil
}

// E4GatherScatter times the control processor gathering scattered
// operands into a contiguous vector: 1.6 µs per 64-bit element (two
// reads + two writes), 0.8 µs per 32-bit element.
func E4GatherScatter(ctx context.Context) (*Result, error) {
	r := newResult("E4", "Gather/scatter")
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	nd := node.New(k, 0)
	idx := make([]int, 128)
	for i := range idx {
		idx[i] = (i * 53) % 4096
	}
	var g64, g32 sim.Duration
	k.Go("cp", func(p *sim.Proc) {
		s := p.Now()
		if err := nd.CP.Gather64(p, 8192, idx); err != nil {
			panic(err)
		}
		g64 = p.Now().Sub(s)
		s = p.Now()
		if err := nd.CP.Gather32(p, 32768, idx); err != nil {
			panic(err)
		}
		g32 = p.Now().Sub(s)
	})
	k.Run(0)
	t := stats.NewTable("Gather of 128 scattered elements",
		"width", "paper per element", "measured per element")
	t.Add("64-bit", "1.6 µs", (g64 / 128).String())
	t.Add("32-bit", "0.8 µs", (g32 / 128).String())
	r.Table = t
	r.Metrics["us_per_elem_64"] = (g64 / 128).Microseconds()
	r.Metrics["us_per_elem_32"] = (g32 / 128).Microseconds()
	return r, nil
}

// E12RowPivot reproduces the paper's "move data physically" argument: in
// LU with partial pivoting, exchanging rows through the vector-register
// row port beats element-wise moves through the word port by two orders
// of magnitude.
func E12RowPivot(ctx context.Context) (*Result, error) {
	r := newResult("E12", "Row-move pivoting")
	n := 64
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = 1.0 / (1 + float64(i+j))
		}
		a[i][i] += 0.5
	}
	for i := range a {
		a[n-1-i][i] += float64(i + 2)
	}
	fast, err := workloads.LU(ctx, n, a, true)
	if err != nil {
		return nil, err
	}
	slow, err := workloads.LU(ctx, n, a, false)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("LU(64×64) with forced pivoting",
		"row exchange", "swaps", "pivot time", "total time")
	t.Add("row port (physical move)", fast.Swaps, fast.PivotTime.String(), fast.Elapsed.String())
	t.Add("word port (element moves)", slow.Swaps, slow.PivotTime.String(), slow.Elapsed.String())
	r.Table = t
	r.Metrics["pivot_speedup"] = float64(slow.PivotTime) / float64(fast.PivotTime)
	r.Metrics["swaps"] = float64(fast.Swaps)
	r.note("one row pair exchanges in 4 row transfers = 1.6 µs vs 64 elements × 3.2 µs each way")

	// The paper's other example, "sorting records": 1024-byte records
	// exchanged whole through the row port vs dragged through the word
	// port.
	keys := make([]float64, 64)
	for i := range keys {
		keys[i] = float64((i*37)%64) - 31.5
	}
	sfast, err := workloads.SortRecords(ctx, 64, keys, true)
	if err != nil {
		return nil, err
	}
	sslow, err := workloads.SortRecords(ctx, 64, keys, false)
	if err != nil {
		return nil, err
	}
	st := stats.NewTable("Sorting 64 × 1 KB records by key",
		"record exchange", "moves", "move time", "total time")
	st.Add("row port", sfast.Moves, sfast.MoveTime.String(), sfast.Elapsed.String())
	st.Add("word port", sslow.Moves, sslow.MoveTime.String(), sslow.Elapsed.String())
	r.Notes = append(r.Notes, st.String())
	r.Metrics["sort_speedup"] = float64(sslow.MoveTime) / float64(sfast.MoveTime)
	return r, nil
}

func init() {
	register("E2", "Processor bandwidth hierarchy (Figure 2)", E2Bandwidths)
	register("E3", "Dual-port memory: word vs row port (§II Memory)", E3DualPortMemory)
	register("E4", "Gather/scatter cost (1.6 µs per 64-bit element, §II)", E4GatherScatter)
	register("E12", "Row-move pivoting vs pointer/element moves (§II Memory)", E12RowPivot)
}
