package main

import (
	"context"
	"fmt"

	"tseries/internal/cube"
	"tseries/internal/fparith"
	"tseries/internal/machine"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// The lattice_12cube workload is workloads.DistributedLattice4D, driven
// step by step from here for the same reasons as ckpt_recovery: setup
// (machine.NewAuto plus loading each node's block) is timed apart from
// the run, and the traced run wraps each layer call in a span. The body
// mirrors the library call for call; its result must equal
// workloads.HostLattice4D bit for bit, and TestLatticeMirrorsLibrary
// pins identical simulated statistics against the library function.

const (
	latticeTagBase  = 7000
	maxLatticeSites = 4096
)

type latticeConfig struct {
	dim, side, iters int
}

// latticeFull is the paper's full 12-cube: 4096 nodes, 512 logical
// shards, executed by kernelWorkers host workers.
var latticeFull = latticeConfig{dim: 12, side: 32, iters: 4}

// latticeTiny is the smoke-test size: an 8-cube, side 8, two sweeps.
var latticeTiny = latticeConfig{dim: 8, side: 8, iters: 2}

// latticeAxes splits a cube dimension over four mesh axes as evenly as
// possible, as the library does.
func latticeAxes(dim int) [4]int {
	base, rem := dim/4, dim%4
	var px [4]int
	for i := range px {
		d := base
		if i < rem {
			d++
		}
		px[i] = 1 << d
	}
	return px
}

// latticeInit is the library's deterministic initial field.
func latticeInit(seed int64, site int) fparith.F64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(site+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return fparith.FromFloat64(float64(z>>11) / (1 << 53))
}

// latticeRun is one built, loaded machine waiting to run.
type latticeRun struct {
	cfg     latticeConfig
	m       *machine.Machine
	px      [4]int
	l, ls   [4]int
	rs      [4][4]int
	sites   int
	base    [2]int
	coordOf [][]int
	errs    []error
	// ops counts the fparith calls of the traced run's sweeps.
	ops []int64
	// operands samples the Add64 operand stream for the fparith probe.
	operands [][2]fparith.F64
	// root is the traced run's machine.run span.
	root *span
}

// latticeSetup builds the 12-cube and loads every node's block.
func latticeSetup(ctx context.Context, cfg latticeConfig, seed int64, tr *recorder) (*latticeRun, error) {
	px := latticeAxes(cfg.dim)
	mesh, err := cube.NewMesh(px[0], px[1], px[2], px[3])
	if err != nil {
		return nil, err
	}
	if mesh.CubeDim() != cfg.dim {
		return nil, fmt.Errorf("lattice: mesh covers a %d-cube, want %d", mesh.CubeDim(), cfg.dim)
	}
	lr := &latticeRun{cfg: cfg, px: px, sites: 1}
	for i := range px {
		if cfg.side%px[i] != 0 {
			return nil, fmt.Errorf("lattice: side %d not divisible by %d processors on axis %d", cfg.side, px[i], i)
		}
		lr.l[i] = cfg.side / px[i]
		lr.sites *= lr.l[i]
	}
	if lr.sites > maxLatticeSites {
		return nil, fmt.Errorf("lattice: %d sites per node exceeds %d", lr.sites, maxLatticeSites)
	}
	l := lr.l
	lr.ls = [4]int{l[1] * l[2] * l[3], l[2] * l[3], l[3], 1}
	for a := 0; a < 4; a++ {
		stride := 1
		for j := 3; j >= 0; j-- {
			if j == a {
				continue
			}
			lr.rs[a][j] = stride
			stride *= l[j]
		}
	}

	sp := tr.start("machine.build", nil, 0, 0)
	m, err := machine.NewAuto(ctx, cfg.dim, kernelWorkers)
	tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	lr.m = m
	fieldRows := (lr.sites*8 + memory.RowBytes - 1) / memory.RowBytes
	lr.base = [2]int{0, fieldRows * memory.F64PerRow}
	lr.coordOf = make([][]int, len(m.Nodes))
	for id := range m.Nodes {
		lr.coordOf[id] = mesh.Coord(id)
	}
	for id, nd := range m.Nodes {
		for s := 0; s < lr.sites; s++ {
			nd.Mem.PokeF64(lr.base[0]+s, latticeInit(seed, lr.globalSite(id, s)))
		}
	}
	lr.errs = make([]error, len(m.Nodes))
	lr.ops = make([]int64, len(m.Nodes))
	for id := range m.Nodes {
		if err := lr.spawn(mesh, id, fieldRows, tr); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

// globalSite maps node id's local site s to its index in the lattice.
func (lr *latticeRun) globalSite(id, s int) int {
	c, side := lr.coordOf[id], lr.cfg.side
	var g [4]int
	rem := s
	for a := 0; a < 4; a++ {
		g[a] = c[a]*lr.l[a] + rem/lr.ls[a]
		rem %= lr.ls[a]
	}
	return ((g[0]*side+g[1])*side+g[2])*side + g[3]
}

// spawn starts node id's sweep process (the library's per-node body).
func (lr *latticeRun) spawn(mesh *cube.Mesh, id, fieldRows int, tr *recorder) error {
	m, px, l, ls, rs, sites, base := lr.m, lr.px, lr.l, lr.ls, lr.rs, lr.sites, lr.base
	e := m.Endpoint(id)
	mem := m.Nodes[id].Mem
	c := lr.coordOf[id]
	var nbr [8]int
	var exists [8]bool
	var face [8][]int
	for d := 0; d < 8; d++ {
		a, s := d/2, d%2
		nc := append([]int(nil), c...)
		if s == 0 {
			nc[a]--
			exists[d] = c[a] > 0
		} else {
			nc[a]++
			exists[d] = c[a] < px[a]-1
		}
		if exists[d] {
			var err error
			if nbr[d], err = mesh.Node(nc...); err != nil {
				return err
			}
		}
		fixed := 0
		if s == 1 {
			fixed = l[a] - 1
		}
		for s2 := 0; s2 < sites; s2++ {
			if (s2/ls[a])%l[a] == fixed {
				face[d] = append(face[d], s2)
			}
		}
	}
	eighth := fparith.FromFloat64(0.125)
	sample := tr != nil && id == 0
	m.GoNode(id, fmt.Sprintf("lattice/n%d", id), func(p *sim.Proc) {
		var halo [8][]fparith.F64
		for it := 0; it < lr.cfg.iters; it++ {
			cur, next := base[it&1], base[(it+1)&1]
			bank := latticeTagBase + (it&1)*8
			for d := 0; d < 8; d++ {
				if !exists[d] {
					continue
				}
				out := make([]fparith.F64, len(face[d]))
				for i, s := range face[d] {
					out[i] = mem.PeekF64(cur + s)
				}
				sp := tr.start("comm.send", lr.root, id, p.Now())
				err := e.SendF64(p, nbr[d], bank+(d^1), out)
				tr.end(sp, p.Now())
				if err != nil {
					lr.errs[id] = err
					return
				}
			}
			for d := 0; d < 8; d++ {
				halo[d] = nil
				if !exists[d] {
					continue
				}
				sp := tr.start("comm.recv", lr.root, id, p.Now())
				src, data := e.RecvF64(p, bank+d)
				tr.end(sp, p.Now())
				if src != nbr[d] {
					lr.errs[id] = fmt.Errorf("lattice: node %d heard %d on direction %d, want %d", id, src, d, nbr[d])
					return
				}
				halo[d] = data
			}
			// The sweep neither parks nor advances simulated time, so its
			// span is pure host work in fparith and memory.
			sp := tr.start("fparith.sweep", lr.root, id, p.Now())
			var ops int64
			for s := 0; s < sites; s++ {
				var x [4]int
				rem := s
				for a := 0; a < 4; a++ {
					x[a] = rem / ls[a]
					rem %= ls[a]
				}
				var sum fparith.F64
				for d := 0; d < 8; d++ {
					a, sd := d/2, d%2
					var v fparith.F64
					switch {
					case sd == 0 && x[a] > 0:
						v = mem.PeekF64(cur + s - ls[a])
					case sd == 1 && x[a] < l[a]-1:
						v = mem.PeekF64(cur + s + ls[a])
					case exists[d]:
						pos := 0
						for j := 0; j < 4; j++ {
							if j != a {
								pos += x[j] * rs[a][j]
							}
						}
						v = halo[d][pos]
					default:
						continue
					}
					if sample && len(lr.operands) < 1<<16 {
						lr.operands = append(lr.operands, [2]fparith.F64{sum, v})
					}
					sum = fparith.Add64(sum, v)
					ops++
				}
				mem.PokeF64(next+s, fparith.Mul64(eighth, sum))
				ops++
			}
			lr.ops[id] += ops
			tr.end(sp, p.Now())
			p.Wait(sim.Duration(sites*8)*sim.Cycle + sim.Duration(2*fieldRows)*sim.RowAccess)
		}
	})
	return nil
}

// run simulates every sweep and returns the simulated end time.
func (lr *latticeRun) run(tr *recorder) (sim.Time, error) {
	lr.root = tr.start("machine.run", nil, -1, 0)
	end := lr.m.Run(0)
	tr.end(lr.root, end)
	if err := lr.m.Err(); err != nil {
		return end, err
	}
	for _, e := range lr.errs {
		if e != nil {
			return end, e
		}
	}
	return end, nil
}

// field gathers the final lattice in row-major site order.
func (lr *latticeRun) field() []fparith.F64 {
	side := lr.cfg.side
	fin := lr.base[lr.cfg.iters&1]
	out := make([]fparith.F64, side*side*side*side)
	for id, nd := range lr.m.Nodes {
		for s := 0; s < lr.sites; s++ {
			out[lr.globalSite(id, s)] = nd.Mem.PeekF64(fin + s)
		}
	}
	return out
}

func (lr *latticeRun) simStats(end sim.Time) simStats {
	st := lr.m.SimStats()
	return simStats{ElapsedPs: int64(end), Events: st.Events, LinkBytes: st.Counters["link.bytes"]}
}
