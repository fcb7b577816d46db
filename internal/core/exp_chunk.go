package core

import (
	"context"

	"tseries/internal/sim"
	"tseries/internal/stats"
)

// A5ChunkedTransfer measures store-and-forward against chunked
// (software cut-through) delivery for long messages across multiple
// hops: a monolithic h-hop transfer costs h wire times, while chunks
// pipeline the hops down toward one wire time plus per-chunk DMA
// startups — the technique the module snapshot thread uses.
func A5ChunkedTransfer(ctx context.Context) (*Result, error) {
	r := newResult("A5", "Chunked multi-hop transfers")
	const total = 32 * 1024
	payload := make([]byte, total)

	run := func(hops, chunk int) (sim.Duration, error) {
		k := sim.NewKernelCtx(ctx)
		net, err := rawCube(k, 3)
		if err != nil {
			return 0, err
		}
		dst := (1 << uint(hops)) - 1 // distance = hops from node 0
		var done sim.Time
		k.Go("tx", func(p *sim.Proc) {
			var err error
			if chunk == 0 {
				err = net.Endpoint(0).Send(p, dst, 90, payload)
			} else {
				err = net.Endpoint(0).SendChunked(p, dst, 90, payload, chunk)
			}
			if err != nil {
				panic(err)
			}
		})
		k.Go("rx", func(p *sim.Proc) {
			if chunk == 0 {
				net.Endpoint(dst).Recv(p, 90)
			} else {
				if _, _, err := net.Endpoint(dst).RecvChunked(p, 90); err != nil {
					panic(err)
				}
			}
			done = p.Now()
		})
		k.Run(0)
		return sim.Duration(done), nil
	}

	t := stats.NewTable("32 KB message, 3-cube",
		"hops", "monolithic", "4 KB chunks", "1 KB chunks", "best speedup")
	var bestAt3 float64
	for _, hops := range []int{1, 2, 3} {
		mono, err := run(hops, 0)
		if err != nil {
			return nil, err
		}
		c4k, err := run(hops, 4096)
		if err != nil {
			return nil, err
		}
		c1k, err := run(hops, 1024)
		if err != nil {
			return nil, err
		}
		best := float64(mono) / float64(minDur(c4k, c1k))
		if hops == 3 {
			bestAt3 = best
		}
		t.Add(hops, mono.String(), c4k.String(), c1k.String(), best)
	}
	r.Table = t
	r.Metrics["speedup_3hops"] = bestAt3
	r.note("store-and-forward pays the full wire time per hop; chunking pipelines hops (ideal ×%d at 3 hops) at the cost of one DMA startup per chunk", 3)
	r.note("the module snapshot thread relies on the same effect to hit the 15 s figure")
	return r, nil
}

func minDur(a, b sim.Duration) sim.Duration {
	if a < b {
		return a
	}
	return b
}

func init() {
	register("A5", "Ablation: chunked multi-hop transfers (software cut-through)", A5ChunkedTransfer)
}
