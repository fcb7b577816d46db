package machine

import (
	"fmt"

	"tseries/internal/comm"
	"tseries/internal/link"
	"tseries/internal/module"
	"tseries/internal/sim"
)

// PartitionPlan is the logical shard map for a conservative parallel
// run of one machine: which module lands on which kernel shard, and the
// lookahead the shard windows may safely use. The plan is pure
// geometry — it is fully determined by the machine dimension and the
// requested shard count, never by the host — so any two runs with the
// same plan produce identical results regardless of how many host cores
// execute it.
//
// Granularity is the module: the eight nodes of a module share a
// backplane whose intramodule hypercube dimensions (0..2) have no
// guaranteed latency floor usable as lookahead, while every intermodule
// path crosses either a cabled hypercube sublink or the system ring,
// both of which pay at least a DMA startup per frame. Splitting below
// module granularity would force a zero lookahead and serialize the
// windows to nothing.
type PartitionPlan struct {
	Dim     int   // machine dimension (2^Dim nodes)
	Modules int   // module count
	Shards  int   // logical shard count (≤ Modules)
	Assign  []int // Assign[m] = shard owning module m

	// Lookahead is the minimum latency of any cross-shard interaction
	// under this plan: the smaller of the hypercube hop floor
	// (comm.HopLookahead: DMA startup + 16-byte header wire time) and
	// the bare link floor (link.Lookahead) for the ring's raw frames.
	// Single-shard plans have no cross-shard edges and report zero.
	Lookahead sim.Duration
}

// PlanPartition derives the module→shard map for a dim-cube split into
// at most wantShards shards. Shards are contiguous runs of modules of
// near-equal size (hypercube neighbours and ring neighbours stay
// clustered), and the effective shard count is clamped to the module
// count — a 4-cube (two modules) cannot use more than two shards no
// matter the request. wantShards < 1 requests the serial plan.
func PlanPartition(dim, wantShards int) (*PartitionPlan, error) {
	spec, err := SpecFor(dim)
	if err != nil {
		return nil, err
	}
	mods := (spec.Nodes + module.NodesPerModule - 1) / module.NodesPerModule
	shards := wantShards
	if shards < 1 {
		shards = 1
	}
	if shards > mods {
		shards = mods
	}
	p := &PartitionPlan{Dim: dim, Modules: mods, Shards: shards, Assign: make([]int, mods)}
	// Contiguous near-equal runs: the first (mods % shards) shards take
	// one extra module.
	base, extra := mods/shards, mods%shards
	m := 0
	for s := 0; s < shards; s++ {
		n := base
		if s < extra {
			n++
		}
		for i := 0; i < n; i++ {
			p.Assign[m] = s
			m++
		}
	}
	if shards > 1 {
		p.Lookahead = comm.HopLookahead()
		if link.Lookahead < p.Lookahead {
			p.Lookahead = link.Lookahead
		}
	}
	return p, nil
}

// ShardOfNode maps a node id to its owning shard.
func (p *PartitionPlan) ShardOfNode(id int) int {
	return p.Assign[id/module.NodesPerModule]
}

// CrossShardDims lists the hypercube dimensions whose links cross shard
// boundaries under this plan — the dimensions whose traffic must flow
// through staged cross-shard edges in a sharded build. With contiguous
// module runs these are always the highest dimensions.
func (p *PartitionPlan) CrossShardDims() []int {
	var dims []int
	nodes := p.Modules * module.NodesPerModule
	for d := 0; d < p.Dim; d++ {
		crosses := false
		for id := 0; id < nodes; id++ {
			if p.ShardOfNode(id) != p.ShardOfNode(id^(1<<d)) {
				crosses = true
				break
			}
		}
		if crosses {
			dims = append(dims, d)
		}
	}
	return dims
}

// Buildable reports whether the machine builder can realise this plan
// as a sharded simulation, and when it cannot, why. One-shard plans
// always are. Multi-shard plans are buildable as long as every shard
// boundary falls on an edge with a positive latency floor:
// comm.BuildCube and module.ConnectRing stage cross-shard hypercube and
// ring traffic through XChan edges, and the supervisor/detector/heal
// control plane follows the shard-ownership rules. A plan is refused
// only when some boundary edge has no floor to stage across — splitting below module granularity would put
// a shard boundary on the intramodule backplane (hypercube dims 0..2),
// whose transfers have no guaranteed minimum latency — or when the plan
// is internally inconsistent.
func (p *PartitionPlan) Buildable() (bool, string) {
	if p.Shards <= 1 {
		return true, ""
	}
	if p.Dim > MaxSimDim {
		return false, fmt.Sprintf(
			"machine: %d-cube exceeds the simulator's %d-cube instantiation cap", p.Dim, MaxSimDim)
	}
	if p.Shards > p.Modules {
		return false, fmt.Sprintf(
			"machine: %d shards over %d modules would cut the intramodule backplane "+
				"(hypercube dims 0..2), which has no latency floor to use as lookahead",
			p.Shards, p.Modules)
	}
	if p.Lookahead <= 0 {
		return false, fmt.Sprintf(
			"machine: %d-shard plan has no positive cross-shard lookahead; the staged "+
				"hypercube/ring edges need a latency floor", p.Shards)
	}
	if len(p.Assign) != p.Modules {
		return false, fmt.Sprintf(
			"machine: assignment covers %d of %d modules", len(p.Assign), p.Modules)
	}
	seen := make([]bool, p.Shards)
	for mod, s := range p.Assign {
		if s < 0 || s >= p.Shards {
			return false, fmt.Sprintf(
				"machine: module %d assigned to shard %d outside [0,%d)", mod, s, p.Shards)
		}
		seen[s] = true
	}
	for s, ok := range seen {
		if !ok {
			return false, fmt.Sprintf("machine: shard %d owns no module", s)
		}
	}
	if p.Assign[0] != 0 {
		return false, fmt.Sprintf(
			"machine: module 0 assigned to shard %d; the control plane (failure detector "+
				"home, supervisor alarm uplinks) anchors on module 0's shard, which must be shard 0",
			p.Assign[0])
	}
	return true, ""
}
