package workloads

import (
	"context"

	"fmt"
	"math/rand"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// SolveResult reports a complete dense solve Ax = b (the LINPACK-style
// exercise of the era: factor, substitute, check the residual).
type SolveResult struct {
	N         int
	Elapsed   sim.Duration
	FactorT   sim.Duration
	SolveT    sim.Duration
	X         []float64
	Residual  float64 // max |Ax − b| on the host, for verification
	FlopCount int64
	Stats     sim.Stats // substitution-kernel engine metrics
}

func init() {
	RegisterFunc("solve", []string{"n", "seed"}, func(cfg Config) (Report, error) {
		r := rand.New(rand.NewSource(cfg.Seed))
		a := randMatDD(r, cfg.N)
		b := make([]float64, cfg.N)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		res, err := Solve(cfg.Context(), cfg.N, a, b)
		if err != nil {
			return Report{}, err
		}
		rep := newReport("solve", 1, res.Elapsed, res.FlopCount, res.Stats)
		rep.Metrics["mflops"] = res.MFLOPS()
		rep.Metrics["residual"] = res.Residual
		if res.Residual > 1e-9*float64(cfg.N) {
			return rep, fmt.Errorf("workloads: solve residual %g", res.Residual)
		}
		rep.Summary = fmt.Sprintf("Solve %d×%d on 1 node: %v simulated (%v factor + %v substitute), %.1f MFLOPS",
			res.N, res.N, res.Elapsed, res.FactorT, res.SolveT, res.MFLOPS())
		return rep, nil
	})
}

// MFLOPS reports the achieved rate over the whole solve using the
// LINPACK operation count 2n³/3 + 2n².
func (r SolveResult) MFLOPS() float64 {
	n := float64(r.N)
	ops := 2*n*n*n/3 + 2*n*n
	return ops / r.Elapsed.Seconds() / 1e6
}

// Solve factors A with partial pivoting on one node (vector-unit
// elimination, row-port pivoting) and then performs the forward and back
// substitutions with the control processor orchestrating per-column
// SAXPYs — the whole LINPACK recipe on T Series hardware.
func Solve(ctx context.Context, n int, a [][]float64, b []float64) (SolveResult, error) {
	if len(b) != n {
		return SolveResult{}, fmt.Errorf("workloads: b has %d entries for n=%d", len(b), n)
	}
	lu, err := LU(ctx, n, a, true)
	if err != nil {
		return SolveResult{}, err
	}

	// Substitutions on a fresh node: L and U rows staged in bank B, the
	// evolving right-hand side in bank A row 0.
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	nd := node.New(k, 0)
	const (
		lBase = 300
		uBase = 500
		yRow  = 0
	)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			nd.Mem.PokeF64((lBase+i)*memory.F64PerRow+j, fparith.FromFloat64(lu.L[i][j]))
			nd.Mem.PokeF64((uBase+i)*memory.F64PerRow+j, fparith.FromFloat64(lu.U[i][j]))
		}
		// Permuted RHS: y = P·b.
		nd.Mem.PokeF64(yRow*memory.F64PerRow+i, fparith.FromFloat64(b[lu.Perm[i]]))
	}

	res := SolveResult{N: n}
	var firstErr error
	k.Go("solve", func(p *sim.Proc) {
		// Forward substitution Ly = Pb: y[i] -= Σ_{j<i} L[i][j]·y[j].
		// Column-oriented: after y[j] is final, one AXPY eliminates its
		// contribution from all later entries. With the vector unit the
		// update is a scalar-vector multiply-add over the trailing part
		// of the y row, orchestrated by the CP with timed reads.
		for j := 0; j < n-1; j++ {
			yj, err := nd.Mem.Read64(p, yRow*memory.F64PerRow+j)
			if err != nil {
				firstErr = err
				return
			}
			// Gather column j of L (rows j+1..n-1) into a bank-B scratch
			// row so the vector unit can run y -= yj·Lcol.
			for i := j + 1; i < n; i++ {
				lij, err := nd.Mem.Read64(p, (lBase+i)*memory.F64PerRow+j)
				if err != nil {
					firstErr = err
					return
				}
				nd.Mem.Write64(p, 900*memory.F64PerRow+i, lij)
			}
			// AXPY over entries j+1..n-1 (the unit processes whole rows;
			// entries before j+1 are zeroed in the scratch row).
			for i := 0; i <= j; i++ {
				nd.Mem.PokeF64(900*memory.F64PerRow+i, 0)
			}
			if _, err := nd.RunForm(p, fpuSAXPY(fparith.Neg64(yj), 900, yRow, yRow, n)); err != nil {
				firstErr = err
				return
			}
		}
		res.FactorT = lu.Elapsed
		mid := p.Now()
		// Back substitution Ux = y.
		for i := n - 1; i >= 0; i-- {
			yi, err := nd.Mem.Read64(p, yRow*memory.F64PerRow+i)
			if err != nil {
				firstErr = err
				return
			}
			uii, err := nd.Mem.Read64(p, (uBase+i)*memory.F64PerRow+i)
			if err != nil {
				firstErr = err
				return
			}
			xi := fparith.Div64(yi, uii)
			nd.Mem.Write64(p, yRow*memory.F64PerRow+i, xi)
			if i == 0 {
				break
			}
			// Eliminate x[i] from rows above: y[r] -= U[r][i]·x[i].
			for rr := 0; rr < i; rr++ {
				uri, err := nd.Mem.Read64(p, (uBase+rr)*memory.F64PerRow+i)
				if err != nil {
					firstErr = err
					return
				}
				nd.Mem.Write64(p, 900*memory.F64PerRow+rr, uri)
			}
			for rr := i; rr < n; rr++ {
				nd.Mem.PokeF64(900*memory.F64PerRow+rr, 0)
			}
			if _, err := nd.RunForm(p, fpuSAXPY(fparith.Neg64(xi), 900, yRow, yRow, n)); err != nil {
				firstErr = err
				return
			}
		}
		res.SolveT = p.Now().Sub(mid)
	})
	end := k.Run(0)
	if err := k.Err(); err != nil {
		return SolveResult{}, err // canceled: results are partial
	}
	if firstErr != nil {
		return SolveResult{}, firstErr
	}
	res.Elapsed = lu.Elapsed + sim.Duration(end)
	// The solve spans two kernels (LU runs its own); report the
	// substitution kernel's engine metrics.
	res.Stats = k.Stats()
	res.X = make([]float64, n)
	for i := range res.X {
		res.X[i] = nd.Mem.PeekF64(yRow*memory.F64PerRow + i).Float64()
	}
	// Host-side residual check.
	for i := 0; i < n; i++ {
		var ax float64
		for j := 0; j < n; j++ {
			ax += a[i][j] * res.X[j]
		}
		if r := abs64(ax - b[i]); r > res.Residual {
			res.Residual = r
		}
	}
	nn := int64(n)
	res.FlopCount = 2*nn*nn*nn/3 + 2*nn*nn
	return res, nil
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// fpuSAXPY builds the Op for z = a·x + y over n 64-bit elements.
func fpuSAXPY(a fparith.F64, x, y, z, n int) fpu.Op {
	return fpu.Op{Form: fpu.SAXPY, Prec: fpu.P64, A: a, X: x, Y: y, Z: z, N: n}
}
