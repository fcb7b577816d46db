package core

import (
	"context"

	"fmt"

	"tseries/internal/fault"
	"tseries/internal/link"
	"tseries/internal/sim"
	"tseries/internal/stats"
	"tseries/internal/workloads"
)

// E17FaultRecovery is the quantitative companion to the paper's §III
// resilience machinery: it measures (a) raw link goodput versus
// injected bit-error rate, showing the checksum/retransmit protocol's
// overhead curve; (b) an end-to-end supervised workload surviving those
// bit errors bit-correct; and (c) crash recovery — time to rewind and
// total run time as a function of checkpoint interval, the trade the
// paper resolves with "about 10 minutes is a good compromise".
func E17FaultRecovery(ctx context.Context) (*Result, error) {
	r := newResult("E17", "Fault injection and recovery")

	// Part A: raw link goodput vs bit-error rate. One sublink pair
	// streams 256 KB in 1 KB frames; the plan corrupts payload bits at
	// the given rate and the link layer retransmits nacked frames.
	ta := stats.NewTable("link goodput vs bit-error rate (256 KB in 1 KB frames)",
		"BER", "goodput (MB/s)", "frames hit", "retransmits", "undetected")
	cleanGoodput := 0.0
	for _, ber := range []float64{0, 1e-6, 1e-5, 1e-4} {
		plan := &fault.Plan{Seed: 17, BER: ber}
		mbps, l, err := linkGoodput(ctx, plan)
		if err != nil {
			return nil, err
		}
		if ber == 0 {
			cleanGoodput = mbps
		}
		ta.Add(fmt.Sprintf("%.0e", ber), mbps, l.Corrupted, l.Retransmits, l.Undetected)
		if ber == 1e-4 {
			r.Metrics["link_goodput_ber1e4_MBps"] = mbps
			r.Metrics["link_retransmits_ber1e4"] = float64(l.Retransmits)
		}
	}
	r.Metrics["link_goodput_clean_MBps"] = cleanGoodput

	// Part B: end-to-end supervised workload under wire bit errors.
	tb := stats.NewTable("supervised SAXPY under bit errors (2-cube, 6 phases)",
		"BER", "elapsed (s)", "goodput (MB/s)", "frames hit", "retransmits", "bit-correct")
	for _, ber := range []float64{0, 1e-6, 1e-5} {
		var plan *fault.Plan
		if ber > 0 {
			plan = &fault.Plan{Seed: 17, BER: ber}
		}
		res, err := workloads.FaultTolerantSAXPY(ctx, 2, 6, 4, 0, 0, plan)
		if err != nil {
			return nil, err
		}
		tb.Add(fmt.Sprintf("%.0e", ber), res.Elapsed.Seconds(), res.GoodputMBps(),
			res.Faults.FramesCorrupted, res.Faults.Retransmits, res.Correct)
		if !res.Correct {
			return nil, fmt.Errorf("E17: run at BER %v not bit-correct", ber)
		}
		if ber == 1e-5 {
			r.Metrics["e2e_retransmits_ber1e5"] = float64(res.Faults.Retransmits)
			r.Metrics["e2e_correct_ber1e5"] = 1
		}
	}

	// Determinism: identical seeds must reproduce the identical trace.
	d1, err := workloads.FaultTolerantSAXPY(ctx, 2, 4, 2, 0, 0, &fault.Plan{Seed: 99, BER: 1e-5})
	if err != nil {
		return nil, err
	}
	d2, err := workloads.FaultTolerantSAXPY(ctx, 2, 4, 2, 0, 0, &fault.Plan{Seed: 99, BER: 1e-5})
	if err != nil {
		return nil, err
	}
	if d1.Elapsed == d2.Elapsed && d1.Faults == d2.Faults {
		r.Metrics["determinism"] = 1
	} else {
		r.Metrics["determinism"] = 0
	}

	// Part C: crash recovery vs checkpoint interval. Node 2 dies at
	// 22 s into an 8-phase padded run; the supervisor rolls back to the
	// newest snapshot and replays from the checkpointed phase counter.
	// A short interval spends more time snapshotting but replays less.
	tc := stats.NewTable("crash recovery vs checkpoint interval (2-cube, 8 padded phases, crash at 22 s)",
		"interval", "checkpoints", "rollbacks", "recovery (s)", "total elapsed (s)", "bit-correct")
	for _, iv := range []sim.Duration{4 * sim.Second, 8 * sim.Second, 0} {
		plan := &fault.Plan{Seed: 5, Events: []fault.Event{
			{At: 22 * sim.Second, Kind: fault.Crash, Node: 2},
		}}
		res, err := workloads.FaultTolerantSAXPY(ctx, 2, 8, 1, 2*sim.Second, iv, plan)
		if err != nil {
			return nil, err
		}
		label := iv.String()
		if iv == 0 {
			label = "initial only"
		}
		tc.Add(label, res.Checkpoints, res.Rollbacks, res.Recovery.Seconds(),
			res.Elapsed.Seconds(), res.Correct)
		if !res.Correct {
			return nil, fmt.Errorf("E17: crash run (interval %v) not bit-correct", iv)
		}
		if iv == 4*sim.Second {
			r.Metrics["recovery_s_iv4"] = res.Recovery.Seconds()
			r.Metrics["rollbacks_iv4"] = float64(res.Rollbacks)
		}
		if iv == 0 {
			r.Metrics["elapsed_s_initial_only"] = res.Elapsed.Seconds()
		}
	}
	r.Table = ta
	r.note(tb.String())
	r.note(tc.String())
	r.note("the paper gives no BER figures; the reproduction's claim is qualitative — detected errors are corrected by retransmit, crashes by snapshot rollback, and identical seeds replay identical traces")
	return r, nil
}

// linkGoodput streams 256 KB across one connected sublink pair under a
// fault plan and reports payload MB/s plus the sender link's counters.
func linkGoodput(ctx context.Context, plan *fault.Plan) (float64, *link.Link, error) {
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	la := link.NewLink(k, "gp/a")
	lb := link.NewLink(k, "gp/b")
	if err := link.Connect(la.Sublink(0), lb.Sublink(0)); err != nil {
		return 0, nil, err
	}
	la.SetInjector(plan)
	const frames, frameBytes = 256, 1024
	var sendErr error
	k.Go("gp/tx", func(p *sim.Proc) {
		buf := make([]byte, frameBytes)
		for i := range buf {
			buf[i] = byte(i)
		}
		for f := 0; f < frames; f++ {
			if err := la.Sublink(0).Send(p, buf); err != nil {
				sendErr = err
				return
			}
		}
	})
	k.Go("gp/rx", func(p *sim.Proc) {
		for f := 0; f < frames; f++ {
			lb.Sublink(0).Recv(p)
		}
	})
	end := k.Run(0)
	if sendErr != nil {
		return 0, nil, sendErr
	}
	return stats.MBps(frames*frameBytes, sim.Duration(end)), la, nil
}

func init() {
	register("E17", "Fault injection & recovery: retransmit, detour, rollback (§III)", E17FaultRecovery)
}
