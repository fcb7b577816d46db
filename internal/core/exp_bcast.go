package core

import (
	"context"

	"fmt"

	"tseries/internal/sim"
	"tseries/internal/stats"
)

// A6BroadcastTree compares the binomial-tree broadcast (depth log₂N, the
// reason the Figure 3 mappings matter) against a naive root-sends-to-all
// loop on the same hardware: the tree spreads forwarding over all nodes
// and links, the naive loop serialises on the root's four links.
func A6BroadcastTree(ctx context.Context) (*Result, error) {
	r := newResult("A6", "Broadcast: binomial tree vs naive root loop")
	const payload = 4096
	t := stats.NewTable(fmt.Sprintf("%d-byte broadcast completion time", payload),
		"nodes", "binomial tree", "naive root loop", "speedup")
	var speedup16 float64
	for _, dim := range []int{2, 3, 4} {
		tree, err := runBroadcast(ctx, dim, payload, true)
		if err != nil {
			return nil, err
		}
		naive, err := runBroadcast(ctx, dim, payload, false)
		if err != nil {
			return nil, err
		}
		sp := float64(naive) / float64(tree)
		if dim == 4 {
			speedup16 = sp
		}
		t.Add(1<<uint(dim), tree.String(), naive.String(), sp)
	}
	r.Table = t
	r.Metrics["speedup_16nodes"] = speedup16
	r.note("the tree forwards through intermediate nodes in parallel (≤ dim sequential hops); the naive loop pushes N−1 copies through the root's own links")
	return r, nil
}

func runBroadcast(ctx context.Context, dim, payload int, tree bool) (sim.Duration, error) {
	k := sim.NewKernelCtx(ctx)
	net, err := rawCube(k, dim)
	if err != nil {
		return 0, err
	}
	data := make([]byte, payload)
	var last sim.Time
	if tree {
		for i := range net.Nodes {
			e := net.Endpoint(i)
			k.Go(fmt.Sprintf("bc/n%d", i), func(p *sim.Proc) {
				if _, err := e.Broadcast(p, 0, 5, data); err != nil {
					panic(err)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
	} else {
		k.Go("root", func(p *sim.Proc) {
			for dst := 1; dst < net.Size(); dst++ {
				if err := net.Endpoint(0).Send(p, dst, 5, data); err != nil {
					panic(err)
				}
			}
		})
		for i := 1; i < net.Size(); i++ {
			e := net.Endpoint(i)
			k.Go(fmt.Sprintf("bc/n%d", i), func(p *sim.Proc) {
				e.Recv(p, 5)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
	}
	k.Run(0)
	return sim.Duration(last), nil
}

func init() {
	register("A6", "Ablation: binomial-tree broadcast vs naive root loop", A6BroadcastTree)
}
