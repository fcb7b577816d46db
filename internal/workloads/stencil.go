package workloads

import (
	"context"

	"fmt"
	"math"

	"tseries/internal/cube"
	"tseries/internal/fparith"
	"tseries/internal/machine"
	"tseries/internal/sim"
)

// StencilResult reports a distributed Jacobi relaxation.
type StencilResult struct {
	Grid    int
	Nodes   int
	Iters   int
	Elapsed sim.Duration
	Field   [][]float64 // final grid, for verification
	Stats   sim.Stats   // engine metrics at completion
}

func init() {
	RegisterFunc("stencil", []string{"dim", "n", "iters"}, func(cfg Config) (Report, error) {
		grid := cfg.N
		init := make([][]float64, grid)
		for i := range init {
			init[i] = make([]float64, grid)
			init[i][0] = 100 // hot west wall
		}
		res, err := DistributedStencil(cfg.Context(), cfg.Dim/2, cfg.Dim-cfg.Dim/2, grid, init, cfg.Iters)
		if err != nil {
			return Report{}, err
		}
		// Nominal count: 1 multiply + 3 adds per interior point per sweep.
		flops := int64(grid-2) * int64(grid-2) * 4 * int64(cfg.Iters)
		rep := newReport("stencil", res.Nodes, res.Elapsed, flops, res.Stats)
		want := HostStencil(grid, init, cfg.Iters)
		maxErr := 0.0
		for i := range want {
			for j := range want[i] {
				if e := math.Abs(res.Field[i][j] - want[i][j]); e > maxErr {
					maxErr = e
				}
			}
		}
		rep.Metrics["max_error"] = maxErr
		if maxErr > 1e-9 {
			return rep, fmt.Errorf("workloads: stencil result off by %g", maxErr)
		}
		rep.Summary = fmt.Sprintf("Stencil %d×%d grid, %d sweeps on %d nodes: %v simulated",
			res.Grid, res.Grid, res.Iters, res.Nodes, res.Elapsed)
		return rep, nil
	})
}

// DistributedStencil runs `iters` Jacobi sweeps of the 2-D Laplace
// five-point stencil on a G×G grid, block-decomposed over a 2-D mesh of
// processors embedded in the cube via Gray coding (Figure 3's mesh
// mapping: every halo exchange is a single-hop cube message). Fixed
// boundary values come from the initial grid edge.
func DistributedStencil(ctx context.Context, dimX, dimY int, grid int, init [][]float64, iters int) (StencilResult, error) {
	px, py := cube.Nodes(dimX), cube.Nodes(dimY)
	mesh, err := cube.NewMesh(px, py)
	if err != nil {
		return StencilResult{}, err
	}
	dim := mesh.CubeDim()
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	m, err := machine.New(k, dim)
	if err != nil {
		return StencilResult{}, err
	}
	if grid%px != 0 || grid%py != 0 {
		return StencilResult{}, fmt.Errorf("workloads: grid %d not divisible by %d×%d mesh", grid, px, py)
	}
	bx, by := grid/px, grid/py

	// Local blocks with one-cell halos, in simulator values.
	type block struct {
		cur, next [][]fparith.F64
	}
	blocks := make([]*block, len(m.Nodes))
	alloc := func() [][]fparith.F64 {
		g := make([][]fparith.F64, bx+2)
		for i := range g {
			g[i] = make([]fparith.F64, by+2)
		}
		return g
	}
	coordOf := make([][]int, len(m.Nodes))
	for id := range m.Nodes {
		coordOf[id] = mesh.Coord(id)
	}
	for id := range m.Nodes {
		b := &block{cur: alloc(), next: alloc()}
		c := coordOf[id]
		for i := 0; i < bx; i++ {
			for j := 0; j < by; j++ {
				b.cur[i+1][j+1] = fparith.FromFloat64(init[c[0]*bx+i][c[1]*by+j])
			}
		}
		blocks[id] = b
	}

	quarter := fparith.FromFloat64(0.25)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for id := range m.Nodes {
		nodeID := id
		e := m.Endpoint(nodeID)
		b := blocks[nodeID]
		cx, cy := coordOf[nodeID][0], coordOf[nodeID][1]
		k.Go(fmt.Sprintf("stencil/n%d", nodeID), func(p *sim.Proc) {
			for it := 0; it < iters; it++ {
				tag := 3000 + it*8
				// Exchange halos with up to four mesh neighbors; mesh
				// edges keep boundary values fixed.
				type nb struct {
					exists   bool
					node     int
					sendTag  int
					sendData func() []fparith.F64
					apply    func([]fparith.F64)
				}
				nbs := []nb{
					{ // left (cx-1): exchange fixed-x slices
						exists:   cx > 0,
						sendTag:  tag + 0,
						sendData: func() []fparith.F64 { return haloX(b.cur, 1, by) },
						apply:    func(v []fparith.F64) { setHaloX(b.cur, 0, v) },
					},
					{ // right
						exists:   cx < px-1,
						sendTag:  tag + 1,
						sendData: func() []fparith.F64 { return haloX(b.cur, bx, by) },
						apply:    func(v []fparith.F64) { setHaloX(b.cur, bx+1, v) },
					},
					{ // down (cy-1): exchange fixed-y slices
						exists:   cy > 0,
						sendTag:  tag + 2,
						sendData: func() []fparith.F64 { return haloY(b.cur, 1, bx) },
						apply:    func(v []fparith.F64) { setHaloY(b.cur, 0, v) },
					},
					{ // up
						exists:   cy < py-1,
						sendTag:  tag + 3,
						sendData: func() []fparith.F64 { return haloY(b.cur, by, bx) },
						apply:    func(v []fparith.F64) { setHaloY(b.cur, by+1, v) },
					},
				}
				// Resolve neighbor node ids.
				if cx > 0 {
					nbs[0].node, _ = mesh.Node(cx-1, cy)
				}
				if cx < px-1 {
					nbs[1].node, _ = mesh.Node(cx+1, cy)
				}
				if cy > 0 {
					nbs[2].node, _ = mesh.Node(cx, cy-1)
				}
				if cy < py-1 {
					nbs[3].node, _ = mesh.Node(cx, cy+1)
				}
				// Send all, then receive all. Tags pair: my "left" send
				// matches the neighbor's "right" receive, so both use
				// the lower tag of the pair direction: sends use my
				// side's tag, receives use the mirrored tag.
				mirror := []int{1, 0, 3, 2}
				for i, nbr := range nbs {
					if !nbr.exists {
						continue
					}
					if err := e.SendF64(p, nbr.node, tag+mirror[i], nbr.sendData()); err != nil {
						fail(err)
						return
					}
				}
				for i, nbr := range nbs {
					if !nbr.exists {
						continue
					}
					src, data := e.RecvF64(p, nbs[i].sendTag)
					if src != nbr.node {
						fail(fmt.Errorf("stencil: node %d heard %d, want %d", nodeID, src, nbr.node))
						return
					}
					nbr.apply(data)
				}
				// Jacobi update; interior points average their four
				// neighbors. One multiply and three adds per point run
				// at pipeline rate.
				for i := 1; i <= bx; i++ {
					for j := 1; j <= by; j++ {
						gx, gy := cx*bx+i-1, cy*by+j-1
						if gx == 0 || gy == 0 || gx == grid-1 || gy == grid-1 {
							b.next[i][j] = b.cur[i][j] // fixed boundary
							continue
						}
						s := fparith.Add64(
							fparith.Add64(b.cur[i-1][j], b.cur[i+1][j]),
							fparith.Add64(b.cur[i][j-1], b.cur[i][j+1]),
						)
						b.next[i][j] = fparith.Mul64(quarter, s)
					}
				}
				p.Wait(sim.Duration(bx*by*4) * sim.Cycle)
				b.cur, b.next = b.next, b.cur
			}
		})
	}
	end := k.Run(0)
	if err := k.Err(); err != nil {
		return StencilResult{}, err // canceled: results are partial
	}
	if firstErr != nil {
		return StencilResult{}, firstErr
	}

	res := StencilResult{Grid: grid, Nodes: len(m.Nodes), Iters: iters, Elapsed: sim.Duration(end), Stats: k.Stats()}
	res.Field = make([][]float64, grid)
	for i := range res.Field {
		res.Field[i] = make([]float64, grid)
	}
	for id, b := range blocks {
		c := coordOf[id]
		for i := 0; i < bx; i++ {
			for j := 0; j < by; j++ {
				res.Field[c[0]*bx+i][c[1]*by+j] = b.cur[i+1][j+1].Float64()
			}
		}
	}
	return res, nil
}

// haloX returns the fixed-x slice g[i][1..by] (sent to x-neighbors).
func haloX(g [][]fparith.F64, i, by int) []fparith.F64 {
	out := make([]fparith.F64, by)
	for j := 0; j < by; j++ {
		out[j] = g[i][j+1]
	}
	return out
}

func setHaloX(g [][]fparith.F64, i int, v []fparith.F64) {
	for j := range v {
		g[i][j+1] = v[j]
	}
}

// haloY returns the fixed-y slice g[1..bx][j] (sent to y-neighbors).
func haloY(g [][]fparith.F64, j, bx int) []fparith.F64 {
	out := make([]fparith.F64, bx)
	for i := 0; i < bx; i++ {
		out[i] = g[i+1][j]
	}
	return out
}

func setHaloY(g [][]fparith.F64, j int, v []fparith.F64) {
	for i := range v {
		g[i+1][j] = v[i]
	}
}

// HostStencil is the reference Jacobi sweep in host arithmetic.
func HostStencil(grid int, init [][]float64, iters int) [][]float64 {
	cur := make([][]float64, grid)
	next := make([][]float64, grid)
	for i := range cur {
		cur[i] = append([]float64(nil), init[i]...)
		next[i] = make([]float64, grid)
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < grid; i++ {
			for j := 0; j < grid; j++ {
				if i == 0 || j == 0 || i == grid-1 || j == grid-1 {
					next[i][j] = cur[i][j]
					continue
				}
				next[i][j] = 0.25 * ((cur[i-1][j] + cur[i+1][j]) + (cur[i][j-1] + cur[i][j+1]))
			}
		}
		cur, next = next, cur
	}
	return cur
}
