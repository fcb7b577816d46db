package machine

import (
	"tseries/internal/link"
	"tseries/internal/sim"
)

// Partitioned machine build. Every machine spreads over the shards of a
// sim.ShardGroup as its PartitionPlan assigns modules: NewAuto shards a
// multi-module machine one logical shard per module, and New builds the
// one-shard plan, under which every rule below holds trivially. The
// eight nodes of a module (and its system board) live on one kernel,
// and every intermodule path that crosses shards — cabled hypercube
// sublinks and the system ring — does so through staged edges with the
// link-layer latency floor as lookahead, exactly the geometry
// PlanPartition derives. Because the partition is fixed by the machine
// dimension, not by the host, the simulation's event order is identical
// at every worker count; -kernel-shards picks only how many host cores
// execute the fixed shard set.
//
// Shard-ownership rules for the layers above the network:
//
//   - Anything owned by node/module X — its processes, memory, link
//     counters, mailboxes — is touched only from X's shard kernel.
//   - Shard 0 (module 0's shard) anchors the control plane: the
//     supervisor alarm channel, ok-token collection, and the failure
//     detector all live there. Other shards reach them through
//     persistent staged uplink edges.
//   - State that crosses shards without a message — spawn/kill of body
//     processes, snapshot aborts, remap walks, topology repair — runs
//     in ShardGroup.Global sections, which execute at window barriers
//     with every shard quiescent.
//   - Reads of remote state from mid-window code go through
//     barrier-synced copies: the comm netView (liveness/routing), the
//     staged sublink outage mirrors, and the retransmit mirror the
//     lossy-link scanner reads. All of them lag a mid-window change by
//     at most one window, which is deterministic for a fixed partition.
//     A one-shard machine has no barriers to sync at, so it keeps none
//     of these copies and reads the live state.

// shardOf maps a node id to its owning shard.
func (m *Machine) shardOf(id int) int { return m.Plan.ShardOfNode(id) }

// shardOfProc identifies which shard kernel p runs on.
func (m *Machine) shardOfProc(p *sim.Proc) int {
	k := p.Kernel()
	for s := 0; s < m.Group.Shards(); s++ {
		if m.Group.Shard(s) == k {
			return s
		}
	}
	panic("machine: process not on any shard of this machine")
}

// machineObserver syncs the barrier-frozen shard state after every
// window: the retransmit mirror always, and the topology views (staged
// sublink outage mirrors plus the comm netView) whenever some channel
// changed state since the last sync.
type machineObserver struct{ m *Machine }

func (o *machineObserver) Window(n int64, end sim.Time)     { o.m.syncShardState() }
func (o *machineObserver) Staged(src, dst int, at sim.Time) {}

func (m *Machine) syncShardState() {
	i := 0
	for _, nd := range m.Nodes {
		for _, l := range nd.Links {
			m.rtxMirror[i] = l.Retransmits
			i++
		}
	}
	ep := link.TopologyEpoch()
	if ep == m.epochSeen {
		return
	}
	m.epochSeen = ep
	for _, nd := range m.Nodes {
		for s := 0; s < link.SublinksPerNode; s++ {
			nd.Sublink(s).SyncStagedMirror()
		}
	}
	for _, mod := range m.Modules {
		for s := 0; s < link.SublinksPerLink; s++ {
			mod.Sys.Link.Sublink(s).SyncStagedMirror()
		}
	}
	m.Net.SyncView()
}

// ctlTok is one control-plane join token. Aborted operations can leave
// stale tokens behind (their workers were killed after posting); the
// generation lets the next joiner skip them.
type ctlTok struct{ gen int64 }

// ctlPost sends a join token from shard `from` to the joiner on shard
// `to`.
func (m *Machine) ctlPost(sp *sim.Proc, from, to int, gen int64) {
	if from == to {
		m.ctl[to].Send(sp, ctlTok{gen: gen})
		return
	}
	m.ctlEdge[from][to].Send(sp, ctlTok{gen: gen})
}

// ctlJoin collects `want` tokens of generation gen on p's shard,
// discarding stale ones. Machine-level control operations are issued by
// one process at a time, so tokens of a different generation are always leftovers of
// an aborted earlier operation.
func (m *Machine) ctlJoin(p *sim.Proc, shard int, gen int64, want int) {
	for got := 0; got < want; {
		if tok := m.ctl[shard].Recv(p).(ctlTok); tok.gen == gen {
			got++
		}
	}
}
