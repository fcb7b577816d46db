package workloads

import (
	"context"

	"fmt"
	"math"
	"math/rand"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// MatMulResult reports a distributed matrix multiplication C = A·B.
type MatMulResult struct {
	N       int
	Nodes   int
	Elapsed sim.Duration
	Flops   int64
	C       [][]float64 // gathered result (row-major), for verification
	Stats   sim.Stats   // engine metrics at completion
}

func init() {
	RegisterFunc("matmul", []string{"dim", "n", "seed"}, func(cfg Config) (Report, error) {
		r := rand.New(rand.NewSource(cfg.Seed))
		a, b := randMat(r, cfg.N), randMat(r, cfg.N)
		res, err := DistributedMatMul(cfg.Context(), cfg.Dim, cfg.N, a, b)
		if err != nil {
			return Report{}, err
		}
		rep := newReport("matmul", res.Nodes, res.Elapsed, res.Flops, res.Stats)
		want := HostMatMul(cfg.N, a, b)
		maxErr := 0.0
		for i := range want {
			for j := range want[i] {
				if e := math.Abs(res.C[i][j] - want[i][j]); e > maxErr {
					maxErr = e
				}
			}
		}
		rep.Metrics["mflops"] = res.MFLOPS()
		rep.Metrics["max_error"] = maxErr
		if maxErr > 1e-9*float64(cfg.N) {
			return rep, fmt.Errorf("workloads: matmul result off by %g", maxErr)
		}
		rep.Summary = fmt.Sprintf("MatMul %d×%d on %d nodes: %v simulated, %.1f MFLOPS",
			res.N, res.N, res.Nodes, res.Elapsed, res.MFLOPS())
		return rep, nil
	})
}

// MFLOPS is the achieved aggregate rate.
func (r MatMulResult) MFLOPS() float64 {
	return float64(r.Flops) / r.Elapsed.Seconds() / 1e6
}

// DistributedMatMul multiplies two N×N matrices on a dim-cube with rows
// of A and C block-distributed and rows of B broadcast k by k (the
// classic row-oriented algorithm: for each k, the owner of B's row k
// broadcasts it; every node then runs one SAXPY per local row, scaled by
// its A[i][k]). All arithmetic runs on the nodes' vector units; A[i][k]
// scalars are fetched through the timed word port as a control processor
// would.
//
// N must be ≤ 128 (one memory row per matrix row) and divisible by the
// node count.
func DistributedMatMul(ctx context.Context, dim int, n int, a, b [][]float64) (MatMulResult, error) {
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	m, err := machine.New(k, dim)
	if err != nil {
		return MatMulResult{}, err
	}
	nNodes := len(m.Nodes)
	if n <= 0 || n > memory.F64PerRow {
		return MatMulResult{}, fmt.Errorf("workloads: N must be 1..%d", memory.F64PerRow)
	}
	if n%nNodes != 0 {
		return MatMulResult{}, fmt.Errorf("workloads: N=%d not divisible by %d nodes", n, nNodes)
	}
	per := n / nNodes

	// Memory layout per node: local row r of A at memory row 300+r
	// (bank B), local row r of C at 600+r (bank B), broadcast buffer for
	// B's current row at row 0 (bank A) — so SAXPY streams its two
	// operands from different banks.
	const (
		aBase = 300
		cBase = 600
		bRow  = 0
	)
	for id, nd := range m.Nodes {
		for r := 0; r < per; r++ {
			gi := id*per + r
			for j := 0; j < n; j++ {
				nd.Mem.PokeF64((aBase+r)*memory.F64PerRow+j, fparith.FromFloat64(a[gi][j]))
				nd.Mem.PokeF64((cBase+r)*memory.F64PerRow+j, 0)
			}
		}
	}
	// B stays with its owning node until broadcast; owners stage row k
	// of B at memory row 100+localIndex (bank A).
	const bStage = 100
	for id, nd := range m.Nodes {
		for r := 0; r < per; r++ {
			gk := id*per + r
			for j := 0; j < n; j++ {
				nd.Mem.PokeF64((bStage+r)*memory.F64PerRow+j, fparith.FromFloat64(b[gk][j]))
			}
		}
	}

	res := MatMulResult{N: n, Nodes: nNodes}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	done := sim.NewChan(k, "matmul/done", nNodes)
	for id := range m.Nodes {
		nodeID := id
		e := m.Endpoint(nodeID)
		nd := m.Nodes[nodeID]
		k.Go(fmt.Sprintf("matmul/n%d", nodeID), func(p *sim.Proc) {
			defer done.Send(p, struct{}{})
			for gk := 0; gk < n; gk++ {
				owner := gk / per
				// Owner reads its staged row; everyone receives the
				// broadcast into the bank-A buffer.
				var payload []fparith.F64
				if nodeID == owner {
					payload = make([]fparith.F64, n)
					local := gk % per
					for j := 0; j < n; j++ {
						payload[j] = nd.Mem.PeekF64((bStage+local)*memory.F64PerRow + j)
					}
				}
				raw, err := e.Broadcast(p, owner, 1000+gk, packF64(payload))
				if err != nil {
					fail(err)
					return
				}
				brow := unpackF64(raw)
				for j := 0; j < n; j++ {
					nd.Mem.PokeF64(bRow*memory.F64PerRow+j, brow[j])
				}
				// One SAXPY per local row: C[i] += A[i][k] · Bk.
				for r := 0; r < per; r++ {
					aik, err := nd.Mem.Read64(p, (aBase+r)*memory.F64PerRow+gk)
					if err != nil {
						fail(err)
						return
					}
					rr, err := nd.RunForm(p, fpu.Op{
						Form: fpu.SAXPY, Prec: fpu.P64,
						A: aik, X: bRow, Y: cBase + r, Z: cBase + r, N: n,
					})
					if err != nil {
						fail(err)
						return
					}
					res.Flops += int64(rr.Flops)
				}
			}
		})
	}
	collect := k.Go("matmul/join", func(p *sim.Proc) {
		for i := 0; i < nNodes; i++ {
			done.Recv(p)
		}
	})
	end := k.Run(0)
	if err := k.Err(); err != nil {
		return MatMulResult{}, err // canceled: results are partial
	}
	_ = collect
	if firstErr != nil {
		return MatMulResult{}, firstErr
	}
	res.Elapsed = sim.Duration(end)
	res.Stats = k.Stats()
	// Gather C for verification (host-side, untimed).
	res.C = make([][]float64, n)
	for id, nd := range m.Nodes {
		for r := 0; r < per; r++ {
			gi := id*per + r
			res.C[gi] = make([]float64, n)
			for j := 0; j < n; j++ {
				res.C[gi][j] = nd.Mem.PeekF64((cBase+r)*memory.F64PerRow + j).Float64()
			}
		}
	}
	return res, nil
}

func packF64(vals []fparith.F64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		u := uint64(v)
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(u >> (8 * uint(b)))
		}
	}
	return buf
}

func unpackF64(buf []byte) []fparith.F64 {
	out := make([]fparith.F64, len(buf)/8)
	for i := range out {
		var u uint64
		for b := 7; b >= 0; b-- {
			u = u<<8 | uint64(buf[8*i+b])
		}
		out[i] = fparith.F64(u)
	}
	return out
}

// HostMatMul is the reference multiply in host arithmetic with the same
// accumulation order as the distributed algorithm (k outermost), so
// results match the simulator bit for bit when both use float64-exact
// inputs.
func HostMatMul(n int, a, b [][]float64) [][]float64 {
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			aik := a[i][k]
			for j := 0; j < n; j++ {
				c[i][j] += aik * b[k][j]
			}
		}
	}
	return c
}
