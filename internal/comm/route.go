package comm

import (
	"errors"
	"fmt"

	"tseries/internal/cube"
	"tseries/internal/link"
)

// Live-graph routing. The fault-free network routes pure e-cube: correct
// the lowest differing address bit whose channel is up. That greedy rule
// survives a single outage (the detour candidates in candidates()), but
// under several simultaneous dead links a greedy detour can wander into
// a corner where every remaining choice bounces the message around until
// its hop budget dies. So whenever the topology is damaged, forwarding
// switches to a next-hop table computed by breadth-first search over the
// live graph — the nodes still in service and the channels still up.
// The table is cached against link.TopologyEpoch and rebuilt only when
// some channel actually changed state; with the machine healthy the fast
// path is byte-identical to the fault-free simulator.

// UnreachableError reports that no sequence of live channels connects
// this node to the destination: the failures have partitioned the cube.
type UnreachableError struct {
	Src, Dst int
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("comm: node %d is unreachable from node %d (network partitioned)", e.Dst, e.Src)
}

// IsUnreachable reports whether err is (or wraps) an UnreachableError.
func IsUnreachable(err error) bool {
	var ue *UnreachableError
	return errors.As(err, &ue)
}

// routeTable is one generation of live-graph routing state.
type routeTable struct {
	epoch   int64
	healthy bool     // every node alive, every channel up: use pure e-cube
	nextHop [][]int8 // [src][dst] → outbound dimension, -1 unreachable
}

// refreshRoutes revalidates the cached routing table against the global
// topology epoch, rebuilding it if any channel changed state. On the
// fault-free fast path this is one atomic load and one comparison.
func (n *Network) refreshRoutes() *routeTable {
	epoch := link.TopologyEpoch()
	if t := n.routes; t != nil && t.epoch == epoch {
		return t
	}
	t := &routeTable{epoch: epoch, healthy: true}
scan:
	for _, nd := range n.Nodes {
		if !nd.Alive() {
			t.healthy = false
			break
		}
		for d := 0; d < n.Dim; d++ {
			if !nd.Sublink(CubeSublink(d)).Up() {
				t.healthy = false
				break scan
			}
		}
	}
	if !t.healthy {
		t.nextHop = n.buildNextHop()
	}
	n.routes = t
	return t
}

// buildNextHop runs one BFS per destination over the live graph and
// records, for every source, the lowest outbound dimension that lies on
// a shortest live path (lowest-dimension tie-break keeps routing
// deterministic). Crashed nodes take no part: their links are down, so
// no live edge touches them.
func (n *Network) buildNextHop() [][]int8 {
	size := len(n.Nodes)
	hop := make([][]int8, size)
	for src := range hop {
		hop[src] = make([]int8, size)
		for dst := range hop[src] {
			hop[src][dst] = -1
		}
	}
	dist := make([]int, size)
	queue := make([]int, 0, size)
	for dst := 0; dst < size; dst++ {
		if !n.Nodes[dst].Alive() {
			continue
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for d := 0; d < n.Dim; d++ {
				v := cube.Neighbor(u, d)
				if dist[v] >= 0 || !n.Nodes[u].Sublink(CubeSublink(d)).Up() {
					continue
				}
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
		for src := 0; src < size; src++ {
			if src == dst || dist[src] < 0 {
				continue
			}
			for d := 0; d < n.Dim; d++ {
				v := cube.Neighbor(src, d)
				if dist[v] == dist[src]-1 && n.Nodes[src].Sublink(CubeSublink(d)).Up() {
					hop[src][dst] = int8(d)
					break
				}
			}
		}
	}
	return hop
}
