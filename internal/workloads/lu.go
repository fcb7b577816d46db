package workloads

import (
	"context"

	"fmt"
	"math"
	"math/rand"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// LUResult reports an in-node LU factorisation with partial pivoting.
type LUResult struct {
	N         int
	Elapsed   sim.Duration
	PivotTime sim.Duration // time spent physically exchanging rows
	Swaps     int
	L, U      [][]float64 // factors (host copies, for verification)
	Perm      []int       // row permutation: PA = LU
	Stats     sim.Stats   // engine metrics at completion
}

func init() {
	RegisterFunc("lu", []string{"n", "seed"}, func(cfg Config) (Report, error) {
		r := rand.New(rand.NewSource(cfg.Seed))
		a := randMatDD(r, cfg.N)
		res, err := LU(cfg.Context(), cfg.N, a, true)
		if err != nil {
			return Report{}, err
		}
		n := cfg.N
		flops := 2 * int64(n) * int64(n) * int64(n) / 3
		rep := newReport("lu", 1, res.Elapsed, flops, res.Stats)
		maxErr := luResidual(n, a, res)
		rep.Metrics["max_error"] = maxErr
		rep.Metrics["swaps"] = float64(res.Swaps)
		rep.Metrics["pivot_time_us"] = res.PivotTime.Seconds() * 1e6
		if maxErr > 1e-9*float64(n) {
			return rep, fmt.Errorf("workloads: LU residual %g", maxErr)
		}
		rep.Summary = fmt.Sprintf("LU %d×%d on 1 node: %v simulated, %d row swaps (%v pivoting)",
			n, n, res.Elapsed, res.Swaps, res.PivotTime)
		return rep, nil
	})
}

// luResidual is the max-norm of PA − LU.
func luResidual(n int, a [][]float64, res LUResult) float64 {
	maxErr := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk <= i && kk <= j; kk++ {
				s += res.L[i][kk] * res.U[kk][j]
			}
			if e := math.Abs(a[res.Perm[i]][j] - s); e > maxErr {
				maxErr = e
			}
		}
	}
	return maxErr
}

// LU factors an N×N matrix on a single node using the vector unit for
// elimination and — when moveRows is true — the paper's row-move fast
// path for pivoting: an entire 1024-byte row moves through a vector
// register in 800 ns, so "pivoting rows of a matrix" moves data
// physically rather than chasing pointers. With moveRows false the swap
// goes element-by-element through the control processor's word port
// (1.6 µs per 64-bit element), the ablation the paper argues against.
func LU(ctx context.Context, n int, a [][]float64, moveRows bool) (LUResult, error) {
	if n <= 0 || n > memory.F64PerRow {
		return LUResult{}, fmt.Errorf("workloads: LU size 1..%d", memory.F64PerRow)
	}
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	nd := node.New(k, 0)

	// U evolves in memory rows 300+i (bank B); L accumulates in rows
	// 600+i (bank B); scratch pivot row buffer at bank A row 0.
	const (
		uBase = 300
		lBase = 600
	)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			nd.Mem.PokeF64((uBase+i)*memory.F64PerRow+j, fparith.FromFloat64(a[i][j]))
			nd.Mem.PokeF64((lBase+i)*memory.F64PerRow+j, 0)
		}
	}
	res := LUResult{N: n, Perm: make([]int, n)}
	for i := range res.Perm {
		res.Perm[i] = i
	}

	var firstErr error
	k.Go("lu", func(p *sim.Proc) {
		var scratch memory.VectorReg
		for kk := 0; kk < n; kk++ {
			// Partial pivoting: the control processor scans column kk
			// (timed 64-bit reads) for the largest magnitude.
			best, bestRow := fparith.F64(0), kk
			for i := kk; i < n; i++ {
				v, err := nd.Mem.Read64(p, (uBase+i)*memory.F64PerRow+kk)
				if err != nil {
					firstErr = err
					return
				}
				if fparith.Cmp64(fparith.Abs64(v), fparith.Abs64(best)) == 1 || i == kk {
					best, bestRow = v, i
				}
			}
			if fparith.IsZero64(best) {
				firstErr = fmt.Errorf("workloads: LU found a singular matrix at step %d", kk)
				return
			}
			if bestRow != kk {
				res.Swaps++
				start := p.Now()
				if moveRows {
					// Physical row exchange via a vector register:
					// three row transfers per pair of rows.
					if err := swapRowsFast(p, nd, uBase+kk, uBase+bestRow, &scratch); err != nil {
						firstErr = err
						return
					}
					if err := swapRowsFast(p, nd, lBase+kk, lBase+bestRow, &scratch); err != nil {
						firstErr = err
						return
					}
				} else {
					if err := swapRowsSlow(p, nd, uBase+kk, uBase+bestRow, n); err != nil {
						firstErr = err
						return
					}
					if err := swapRowsSlow(p, nd, lBase+kk, lBase+bestRow, n); err != nil {
						firstErr = err
						return
					}
				}
				res.PivotTime += p.Now().Sub(start)
				res.Perm[kk], res.Perm[bestRow] = res.Perm[bestRow], res.Perm[kk]
			}
			// L[kk][kk] = 1.
			nd.Mem.PokeF64((lBase+kk)*memory.F64PerRow+kk, fparith.FromFloat64(1))
			pivot, err := nd.Mem.Read64(p, (uBase+kk)*memory.F64PerRow+kk)
			if err != nil {
				firstErr = err
				return
			}
			for i := kk + 1; i < n; i++ {
				aik, err := nd.Mem.Read64(p, (uBase+i)*memory.F64PerRow+kk)
				if err != nil {
					firstErr = err
					return
				}
				factor := fparith.Div64(aik, pivot)
				nd.Mem.Write64(p, (lBase+i)*memory.F64PerRow+kk, factor)
				// Row update on the vector unit: U[i] -= factor·U[kk].
				if _, err := nd.RunForm(p, fpu.Op{
					Form: fpu.SAXPY, Prec: fpu.P64,
					A: fparith.Neg64(factor), X: uBase + kk, Y: uBase + i, Z: uBase + i, N: n,
				}); err != nil {
					firstErr = err
					return
				}
				// The eliminated element is zero by construction; the
				// rounded SAXPY may leave ±1 ulp of residue, which the
				// algorithm clears (its value lives in L).
				nd.Mem.PokeF64((uBase+i)*memory.F64PerRow+kk, 0)
			}
		}
	})
	end := k.Run(0)
	if err := k.Err(); err != nil {
		return LUResult{}, err // canceled: results are partial
	}
	if firstErr != nil {
		return LUResult{}, firstErr
	}
	res.Elapsed = sim.Duration(end)
	res.Stats = k.Stats()
	res.L = readMatrix(nd, lBase, n)
	res.U = readMatrix(nd, uBase, n)
	return res, nil
}

// swapRowsFast exchanges two memory rows with three 400 ns row
// transfers through a vector register (plus one row held in a second
// register modelled by a host buffer — the node has two).
func swapRowsFast(p *sim.Proc, nd *node.Node, r1, r2 int, scratch *memory.VectorReg) error {
	var reg2 memory.VectorReg
	if err := nd.Mem.LoadRow(p, r1, scratch); err != nil {
		return err
	}
	if err := nd.Mem.LoadRow(p, r2, &reg2); err != nil {
		return err
	}
	if err := nd.Mem.StoreRow(p, r1, &reg2); err != nil {
		return err
	}
	return nd.Mem.StoreRow(p, r2, scratch)
}

// swapRowsSlow exchanges rows element by element through the control
// processor's random-access port: per 64-bit element, two reads and two
// writes in each direction.
func swapRowsSlow(p *sim.Proc, nd *node.Node, r1, r2, n int) error {
	for j := 0; j < n; j++ {
		v1, err := nd.Mem.Read64(p, r1*memory.F64PerRow+j)
		if err != nil {
			return err
		}
		v2, err := nd.Mem.Read64(p, r2*memory.F64PerRow+j)
		if err != nil {
			return err
		}
		nd.Mem.Write64(p, r1*memory.F64PerRow+j, v2)
		nd.Mem.Write64(p, r2*memory.F64PerRow+j, v1)
	}
	return nil
}

func readMatrix(nd *node.Node, base, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			out[i][j] = nd.Mem.PeekF64((base+i)*memory.F64PerRow + j).Float64()
		}
	}
	return out
}
