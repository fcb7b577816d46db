package comm

// Multi-shard networks. BuildCube spreads the n-cube across the shard
// kernels of a sim.ShardGroup.
//
// Shard ownership rule: every router daemon, mailbox, and counter of
// node id lives on shardOf(id)'s kernel and is only ever touched from
// there. The one piece of genuinely global state — which nodes are
// alive and which channels are up, consulted by Send fail-fast checks
// and the collectives' degraded-mode re-rooting — is frozen into a
// netView at window barriers (SyncView), so mid-window reads touch no
// other shard's memory. A crash becomes visible to remote shards at
// most one window (= one lookahead) late; for a fixed partition that
// lag is identical at every worker count, keeping output byte-stable.
type netView struct {
	healthy bool     // every node alive, every cube channel up
	anyDead bool     // some node crashed
	lowest  int      // lowest alive node id, -1 if none
	alive   []bool   // per-node liveness
	nextHop [][]int8 // live-graph table, nil while healthy
}

// SyncView refreshes the barrier-frozen topology view. It must be
// called only when every shard is quiescent — at a ShardGroup window
// barrier, or from host/Global context — and after the staged sublink
// mirrors have been synced, so Up() reads are coherent.
func (n *Network) SyncView() {
	v := n.view
	if v == nil {
		return
	}
	v.healthy = true
	v.anyDead = false
	v.lowest = -1
	for id, nd := range n.Nodes {
		a := nd.Alive()
		v.alive[id] = a
		if !a {
			v.anyDead = true
			v.healthy = false
			continue
		}
		if v.lowest < 0 {
			v.lowest = id
		}
		for d := 0; d < n.Dim && v.healthy; d++ {
			if !nd.Sublink(CubeSublink(d)).Up() {
				v.healthy = false
			}
		}
	}
	if v.healthy {
		v.nextHop = nil
	} else {
		v.nextHop = n.buildNextHop()
	}
}
