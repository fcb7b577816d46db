// Package machine builds complete T Series configurations: nodes grouped
// eight-to-a-module, modules paired into cabinets (4-cubes), cabinets
// cabled into binary n-cubes up to the architecture's 14-cube limit.
// Because the system is homogeneous — every module identical, with
// identical connections — the specification of any size machine derives
// from the properties of the individual modules (§III).
package machine

import (
	"fmt"

	"tseries/internal/cube"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/node"
)

// Architecture limits.
const (
	// MaxDim: "There are enough links per node to permit a 14-cube to be
	// constructed as the largest T Series configuration" (16 sublinks
	// minus 2 for system communication).
	MaxDim = 14
	// MaxUsableDim: "Using two links per node for external I/O and mass
	// storage systems, a maximum-sized 12-cube consists of 4096 nodes."
	MaxUsableDim = 12
	// IOSublinksReserved per node in usable configurations.
	IOSublinksReserved = 2
	// NodesPerCabinet: two modules (16 nodes) form a cabinet, a 4-cube.
	NodesPerCabinet = 2 * module.NodesPerModule
)

// Spec is the derived specification of a configuration.
type Spec struct {
	Dim          int
	Nodes        int
	Modules      int
	Cabinets     int
	PeakMFLOPS   int
	RAMBytes     int64
	Disks        int
	CubeSublinks int // per node, for hypercube neighbors
	SysSublinks  int // per node, for the system thread
	FreeSublinks int // per node, left for I/O and expansion
}

// SpecFor derives the specification of an n-cube configuration.
func SpecFor(dim int) (Spec, error) {
	if dim < 0 || dim > MaxDim {
		return Spec{}, fmt.Errorf("machine: dimension %d outside 0..%d", dim, MaxDim)
	}
	nodes := cube.Nodes(dim)
	modules := (nodes + module.NodesPerModule - 1) / module.NodesPerModule
	cabinets := (modules + 1) / 2
	free := link.SublinksPerNode - dim - 2
	return Spec{
		Dim:          dim,
		Nodes:        nodes,
		Modules:      modules,
		Cabinets:     cabinets,
		PeakMFLOPS:   nodes * node.PeakMFLOPS,
		RAMBytes:     int64(nodes) * memory.Bytes,
		Disks:        modules,
		CubeSublinks: dim,
		SysSublinks:  2,
		FreeSublinks: free,
	}, nil
}

// Usable reports whether the configuration leaves the two sublinks per
// node the paper reserves for external I/O and mass storage.
func (s Spec) Usable() bool { return s.FreeSublinks >= IOSublinksReserved }

// PeakGFLOPS is the headline rate in GFLOPS.
func (s Spec) PeakGFLOPS() float64 { return float64(s.PeakMFLOPS) / 1000 }

// String renders one config-table row.
func (s Spec) String() string {
	return fmt.Sprintf("%2d-cube: %5d nodes, %4d modules, %4d cabinets, %8d MFLOPS, %6d MB RAM, %4d disks, %2d free sublinks",
		s.Dim, s.Nodes, s.Modules, s.Cabinets, s.PeakMFLOPS, s.RAMBytes>>20, s.Disks, s.FreeSublinks)
}
