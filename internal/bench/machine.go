package bench

import (
	"context"
	"fmt"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/machine"
	"tseries/internal/sim"
)

// The machine scaling curve: one full machine simulation — FPU vector
// forms, router traffic, module threads — at dim 5 (32 nodes, four
// modules), run three ways. machine_shard_scale_1 is the one-shard
// build (machine.New: every node on one kernel, one pending set);
// machine_shard_scale_2 and _4 are the partitioned build
// (machine.NewAuto: one logical shard per module, staged intermodule
// edges) at 2 and 4 host workers. The partitioned timeline is fixed by
// the geometry — _2 and _4 execute the identical four-shard simulation
// — so the _2/_4 spread isolates worker parallelism, while the _1/_2
// spread measures what partitioning itself buys: four small pending
// sets instead of one large one (cache locality even on one core), plus
// parallel window execution when gomaxprocs allows. Like the synthetic
// shard_scale curve the scenarios are tagged with their shard knob and
// exempt from the regression gate; BENCH_kernel.json's gomaxprocs
// records which effect the numbers include.

// machineShardDim is the measured geometry: 32 nodes in four modules,
// the smallest machine where the partitioned build has enough shards to
// occupy four workers.
const machineShardDim = 5

// machineShardScenarios returns the machine scaling curve points. The
// scenario's shard knob is the requested host worker count; the logical
// partition is fixed by the geometry (serial at 1, four shards above).
func machineShardScenarios() []shardScenario {
	var out []shardScenario
	for _, w := range []int{1, 2, 4} {
		out = append(out, shardScenario{
			name:   fmt.Sprintf("machine_shard_scale_%d", w),
			shards: w,
			run:    machineShardRun(w),
		})
	}
	return out
}

// machineShardRun builds the dim-5 machine (one shard at workers == 1,
// one shard per module otherwise) and drives a phased exchange workload: every
// node alternates vector compute (a SAXPY form through the FPU model)
// with a row exchange across a rotating hypercube dimension. One
// operation is one node-phase; events scale with n plus the fixed build
// and drain cost, which amortises as n grows.
func machineShardRun(workers int) func(n int) int64 {
	return func(n int) int64 {
		var m *machine.Machine
		var err error
		if workers <= 1 {
			m, err = machine.New(sim.NewKernel(), machineShardDim)
		} else {
			m, err = machine.NewAuto(context.Background(), machineShardDim, workers)
		}
		if err != nil {
			panic(err)
		}
		defer m.Close()
		nodes := len(m.Nodes)
		iters := n/nodes + 1
		a := fparith.FromInt64(2)
		for id := 0; id < nodes; id++ {
			nodeID := id
			m.GoNode(nodeID, fmt.Sprintf("bench/n%d", nodeID), func(p *sim.Proc) {
				nd := m.Nodes[nodeID]
				ep := m.Endpoint(nodeID)
				for it := 0; it < iters; it++ {
					if _, err := nd.RunForm(p, fpu.Op{
						Form: fpu.SAXPY, Prec: fpu.P64, X: 0, Y: 1, Z: 2, A: a,
					}); err != nil {
						panic(err)
					}
					// Pairwise exchange across dimension it%dim: the two
					// ends block on each other, so the lattice stays in
					// lockstep within a tag window of 8 phases.
					peer := nodeID ^ (1 << uint(it%machineShardDim))
					tag := 100 + it%8
					if err := ep.Send(p, peer, tag, []byte{byte(it)}); err != nil {
						panic(err)
					}
					ep.Recv(p, tag)
				}
			})
		}
		m.Run(0)
		return m.SimStats().Events
	}
}
