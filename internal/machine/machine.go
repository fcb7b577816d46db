package machine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tseries/internal/comm"
	"tseries/internal/fault"
	"tseries/internal/link"
	"tseries/internal/module"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// MaxSimDim caps how large a machine the simulator will actually
// instantiate. Node memory is sparse (rows materialize on first write,
// checkpoints dedup at row granularity), so footprint scales with the
// rows a workload touches rather than the configured store, and the
// paper's maximum usable configuration — the 12-cube, 4096 nodes —
// instantiates and runs on an ordinary host. Specifications beyond
// this derive from SpecFor without instantiation, exactly as the paper
// derives large-system properties from module properties.
const MaxSimDim = 12

// Machine is an instantiated, runnable T Series configuration.
//
// Every machine is built the same way: across the shards of a
// sim.ShardGroup, following a PartitionPlan. A serial machine is the
// one-shard plan, where no edge is staged and Global sections run
// inline; see sharded.go for the shard-ownership rules.
type Machine struct {
	Dim     int
	Spec    Spec
	K       *sim.Kernel // shard 0's kernel: module 0's, where the control plane anchors
	Nodes   []*node.Node
	Modules []*module.Module
	Net     *comm.Network

	Group *sim.ShardGroup
	Plan  *PartitionPlan

	ctl     []*sim.Chan    // per-shard control-token inbox
	ctlEdge [][]*sim.XChan // [from][to] staged control edges
	ctlGen  int64          // join generation; stale tokens are ignored

	rtxMirror []int64 // [node*links+i] barrier-synced link retransmit counts; nil on one shard
	epochSeen int64   // last topology epoch the shard views were synced at
	faults    *fault.Sharded
}

// New builds a 2^dim-node machine on one kernel: nodes, hypercube
// network on sublinks 0..dim-1, modules of eight nodes with system
// threads on sublinks 14/15, and the system ring joining the module
// system boards. The kernel becomes the machine's only shard, so the
// caller may drive it directly with k.Run and k.Err.
func New(k *sim.Kernel, dim int) (*Machine, error) {
	plan, err := PlanPartition(dim, 1)
	if err != nil {
		return nil, err
	}
	return build(sim.OneShard(k), plan)
}

// NewAuto builds the natural machine for dim bound to ctx: one logical
// shard per module, so a single-module dimension runs on one kernel,
// with `workers` host workers executing the windows. workers < 1 leaves
// the group's default of one worker — the output is identical either
// way.
func NewAuto(ctx context.Context, dim, workers int) (*Machine, error) {
	plan, err := PlanPartition(dim, math.MaxInt) // clamps to the module count
	if err != nil {
		return nil, err
	}
	g := sim.NewShardGroupCtx(ctx, plan.Shards)
	if workers > 0 {
		g.SetWorkers(workers)
	}
	return build(g, plan)
}

// build instantiates a machine across the shards of g as plan assigns
// them. Every machine, serial or partitioned, is built here.
func build(g *sim.ShardGroup, plan *PartitionPlan) (*Machine, error) {
	dim := plan.Dim
	spec, err := SpecFor(dim)
	if err != nil {
		return nil, err
	}
	if dim > MaxSimDim {
		return nil, fmt.Errorf("machine: %d-cube exceeds the simulator's %d-cube instantiation cap (use SpecFor for larger derivations)", dim, MaxSimDim)
	}
	if ok, why := plan.Buildable(); !ok {
		return nil, errors.New(why)
	}
	m := &Machine{Dim: dim, Spec: spec, K: g.Shard(0), Group: g, Plan: plan}
	for i := 0; i < spec.Nodes; i++ {
		m.Nodes = append(m.Nodes, node.New(g.Shard(plan.ShardOfNode(i)), i))
	}
	// Hypercube on the low sublinks.
	net, err := comm.BuildCube(g, m.Nodes, plan.ShardOfNode)
	if err != nil {
		return nil, err
	}
	m.Net = net
	// Modules: consecutive groups of eight (a 3-subcube each, so the
	// three intramodule hypercube dimensions stay on the backplane).
	for i := 0; i < spec.Nodes; i += module.NodesPerModule {
		end := i + module.NodesPerModule
		if end > spec.Nodes {
			end = spec.Nodes
		}
		idx := len(m.Modules)
		mod, err := module.New(g.Shard(plan.Assign[idx]), idx, m.Nodes[i:end])
		if err != nil {
			return nil, err
		}
		m.Modules = append(m.Modules, mod)
	}
	// System ring between module system boards.
	if len(m.Modules) > 1 {
		if err := module.ConnectRing(g, m.Modules, func(i int) int { return plan.Assign[i] }); err != nil {
			return nil, err
		}
	}
	// Control-token mesh: every shard can join operations fanned out to
	// every other shard (the joiner may run on any shard).
	m.ctl = make([]*sim.Chan, plan.Shards)
	for s := range m.ctl {
		m.ctl[s] = sim.NewChan(g.Shard(s), fmt.Sprintf("machine/ctl%d", s), 4*len(m.Modules))
	}
	m.ctlEdge = make([][]*sim.XChan, plan.Shards)
	for a := 0; a < plan.Shards; a++ {
		m.ctlEdge[a] = make([]*sim.XChan, plan.Shards)
		for b := 0; b < plan.Shards; b++ {
			if a == b {
				continue
			}
			m.ctlEdge[a][b] = g.ConnectInto(a, b, fmt.Sprintf("machine/ctl%d-%d", a, b), plan.Lookahead, m.ctl[b])
		}
	}
	// Windows, and the barrier-frozen state they refresh, exist only
	// across shards. A one-shard group runs a single unbounded window,
	// so a frozen copy would never refresh; there every read stays live.
	if plan.Shards > 1 {
		g.SetLookahead(plan.Lookahead)
		m.rtxMirror = make([]int64, len(m.Nodes)*link.LinksPerNode)
		g.SetWindowObserver(&machineObserver{m: m})
		m.syncShardState()
	}
	return m, nil
}

// Endpoint returns node id's message-passing endpoint.
func (m *Machine) Endpoint(id int) *comm.Endpoint { return m.Net.Endpoint(id) }

// Run executes the simulation to the horizon (0 = until drained) and
// returns the end time.
func (m *Machine) Run(horizon sim.Duration) sim.Time { return m.Group.Run(horizon) }

// Err reports the simulation's terminal error (context cancellation),
// if any.
func (m *Machine) Err() error { return m.Group.Err() }

// Close releases a finished machine: every process still parked on any
// shard — link routers, heartbeat daemons, module threads — is unwound
// and its goroutine exits (see sim.ShardGroup.Close). Call it once the
// run's results have been read; the machine must not run again.
func (m *Machine) Close() { m.Group.Close() }

// SimStats returns the aggregated kernel statistics.
func (m *Machine) SimStats() sim.Stats {
	// One shard reports its kernel's own stats: no window or per-shard
	// fields, so a serial machine's reports keep their exact bytes.
	if m.Group.Shards() == 1 {
		return m.K.Stats()
	}
	return m.Group.Stats()
}

// SnapshotAll checkpoints every module in parallel and blocks until all
// complete. Because each module has its own thread and disk, the elapsed
// time is that of one module — "regardless of configuration". The
// workers are spawned in a Global section (so spawn order never races),
// run on their modules' kernels, and report back through the control
// mesh to whatever shard the caller runs on.
func (m *Machine) SnapshotAll(p *sim.Proc) ([]*module.Snapshot, error) {
	shard := m.shardOfProc(p)
	m.ctlGen++
	gen := m.ctlGen
	snaps := make([]*module.Snapshot, len(m.Modules))
	errs := make([]error, len(m.Modules))
	m.Group.Global(p, func(at sim.Time) {
		for i, mod := range m.Modules {
			idx, mm := i, mod
			ms := m.Plan.Assign[idx]
			m.Group.Shard(ms).Go(fmt.Sprintf("snapall/mod%d", idx), func(sp *sim.Proc) {
				snaps[idx], errs[idx] = mm.Snapshot(sp)
				m.ctlPost(sp, ms, shard, gen)
			})
		}
	})
	m.ctlJoin(p, shard, gen, len(m.Modules))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return snaps, nil
}

// RestoreAll rewinds every module to the given snapshots, in parallel,
// each on its own shard.
func (m *Machine) RestoreAll(p *sim.Proc, snaps []*module.Snapshot) error {
	if len(snaps) != len(m.Modules) {
		return fmt.Errorf("machine: %d snapshots for %d modules", len(snaps), len(m.Modules))
	}
	shard := m.shardOfProc(p)
	m.ctlGen++
	gen := m.ctlGen
	errs := make([]error, len(m.Modules))
	m.Group.Global(p, func(at sim.Time) {
		for i, mod := range m.Modules {
			idx, mm := i, mod
			ms := m.Plan.Assign[idx]
			m.Group.Shard(ms).Go(fmt.Sprintf("restoreall/mod%d", idx), func(sp *sim.Proc) {
				errs[idx] = mm.Restore(sp, snaps[idx])
				m.ctlPost(sp, ms, shard, gen)
			})
		}
	})
	m.ctlJoin(p, shard, gen, len(m.Modules))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
