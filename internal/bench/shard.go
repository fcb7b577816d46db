package bench

import (
	"fmt"

	"tseries/internal/sim"
)

// The parallel-kernel scaling curve: one simulation — a fixed standing
// population of self-rescheduling timers plus a trickle of ring traffic
// at real link latency — partitioned over 1, 2, 4, and 8 logical kernel
// shards. The timer population models a communication-light machine
// (every node busy on local work, cross-shard frames rare and slow),
// which is exactly the workload class conservative windows parallelize.
//
// The curve measures two distinct effects. On any host, partitioning
// shrinks each shard's pending-event set, so priority-queue operations
// run against a cache- and TLB-resident working set instead of one
// monolithic queue (the dominant win on a single-core host: the serial
// pending set is several times the L2, each per-shard set a fraction of
// it). On a multi-core host the window executor additionally runs
// shards on parallel workers. Both effects report as events/sec against
// the shard_scale_1 baseline; BENCH_kernel.json records gomaxprocs so
// the two are distinguishable.
//
// Operating point: shardScaleTimers standing timers with reschedule
// delays past the calendar wheel span, so the standing set lives in the
// overflow heap and every push/pop walks log(set) scattered records —
// the shape where pending-set size dominates per-event cost.

const (
	// shardScaleTimers is the standing pending-set size — the quantity
	// partitioning shrinks. Sized so the serial record pool (~10 MB)
	// overflows a few-MB L2 while a quarter of it approaches residency.
	shardScaleTimers = 150000
	// shardScaleBase is the minimum reschedule delay: comfortably past
	// the ≈67 µs wheel span, so standing timers wait in the overflow
	// heap rather than in shallow wheel buckets.
	shardScaleBase = 80 * sim.Microsecond
)

// shardScenario is one point of the scaling curve.
type shardScenario struct {
	name   string
	shards int
	run    func(n int) int64
}

// shardScenarios returns the scaling curve points.
func shardScenarios() []shardScenario {
	var out []shardScenario
	for _, g := range []int{1, 2, 4, 8} {
		out = append(out, shardScenario{
			name:   fmt.Sprintf("shard_scale_%d", g),
			shards: g,
			run:    shardScaleRun(g),
		})
	}
	return out
}

// shardScaleRun builds the standing-timer simulation on g logical
// shards and runs it to completion. One operation is one timer tick: a
// per-shard budget of n/g reschedules spreads across the standing
// population, so events ≈ shardScaleTimers + n and the fixed cost of
// planting and draining the population amortises as n grows.
func shardScaleRun(shards int) func(n int) int64 {
	return func(n int) int64 {
		g := sim.NewShardGroup(shards)
		defer g.Close()
		g.SetWorkers(shards)

		if shards > 1 {
			// Ring edges at a realistic inter-module latency carry one
			// token for a few circuits: enough cross-shard traffic to
			// exercise staging and merge, sparse enough to stay
			// communication-light. The edge latency, not the token, sets
			// the window width.
			const hop = sim.Millisecond
			const circuits = 4
			fwd := make([]*sim.XChan, shards)
			for s := 0; s < shards; s++ {
				fwd[s] = g.Connect(s, (s+1)%shards, fmt.Sprintf("ring%d", s), hop, 2)
			}
			for s := 0; s < shards; s++ {
				s := s
				g.Shard(s).Go(fmt.Sprintf("relay%d", s), func(p *sim.Proc) {
					if s == 0 {
						fwd[0].Send(p, 0)
					}
					prev := fwd[(s+shards-1)%shards]
					for r := 0; r < circuits; r++ {
						v := prev.Recv(p).(int)
						if s == 0 && r == circuits-1 {
							return // token retired
						}
						fwd[s].Send(p, v+1)
					}
				})
			}
		}

		perShard := shardScaleTimers / shards
		budget := n / shards
		for s := 0; s < shards; s++ {
			k := g.Shard(s)
			rem := budget
			for i := 0; i < perShard; i++ {
				// Jittered delays keep the overflow heap churning at
				// uncorrelated instants; staggered phases spread the
				// initial burst across ~1 ms of simulated time. Each timer
				// keeps its own closure — a standing timer models a node
				// with private context, so the working set scales with the
				// population.
				d := shardScaleBase + sim.Duration(i%307)*sim.Microsecond
				off := sim.Duration(1+i%997) * 997 * sim.Nanosecond
				var fn func()
				fn = func() {
					if rem > 0 {
						rem--
						k.After(d, fn)
					}
				}
				k.After(off, fn)
			}
		}

		g.Run(0)
		return g.Stats().Events
	}
}
