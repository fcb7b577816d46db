package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"tseries/internal/fparith"
	"tseries/internal/link"
	"tseries/internal/sim"
)

// pring is the shard-native workload: a ring all-reduce over 2^dim
// module system boards, built directly on sim.ShardGroup with one
// logical shard per ring station. Each phase every station computes a
// local SAXPY partial sum (rows elements at pipeline rate), then the
// stations all-reduce it around the unidirectional system ring — an
// accumulate circuit followed by a broadcast circuit, every hop paying
// the real link frame time (DMA startup + wire time), which is exactly
// the lookahead the conservative windows run on.
//
// The logical partition is fixed by dim, so the report is byte-identical
// at every KernelShards value; the knob only sets how many host workers
// execute the windows. This is the communication-light scaling workload
// the bench shard curves measure.
func init() {
	RegisterFunc("pring", []string{"dim", "rows", "iters"}, func(cfg Config) (Report, error) {
		return runPRing(cfg)
	})
}

// pringFrameBytes is the wire size of one ring hop: an 8-byte partial
// sum behind the standard 16-byte message header.
const pringFrameBytes = 24

func runPRing(cfg Config) (Report, error) {
	stations := 1 << uint(cfg.Dim)
	phases := cfg.Iters
	if phases < 1 {
		phases = 1
	}
	rows := cfg.Rows
	if rows < 1 {
		rows = 1
	}

	// Deterministic per-station inputs, generated before the simulation
	// so each shard only ever reads its own slice.
	rng := rand.New(rand.NewSource(cfg.Seed))
	xs := make([][]fparith.F64, stations)
	ys := make([][]fparith.F64, stations)
	for s := 0; s < stations; s++ {
		xs[s] = make([]fparith.F64, rows)
		ys[s] = make([]fparith.F64, rows)
		for r := 0; r < rows; r++ {
			xs[s][r] = fparith.FromFloat64(rng.NormFloat64())
			ys[s][r] = fparith.FromFloat64(rng.NormFloat64())
		}
	}

	g := sim.NewShardGroupCtx(cfg.Context(), stations)
	defer g.Close()
	g.SetWorkers(cfg.Workers())
	hop := link.TransferTime(pringFrameBytes)
	fwd := make([]*sim.XChan, stations)
	for s := 0; s < stations; s++ {
		fwd[s] = g.Connect(s, (s+1)%stations, fmt.Sprintf("pring/hop%d", s), hop, 2)
	}

	// Per-station results, one slot per shard (no cross-shard writes).
	totals := make([][]fparith.F64, stations)
	for s := range totals {
		totals[s] = make([]fparith.F64, phases)
	}

	for s := 0; s < stations; s++ {
		s := s
		k := g.Shard(s)
		k.Go(fmt.Sprintf("pring/station%d", s), func(p *sim.Proc) {
			prev := fwd[(s+stations-1)%stations]
			for ph := 0; ph < phases; ph++ {
				// Local SAXPY partial: acc += a*x[r] + y[r], one multiply
				// and two adds per row at pipeline rate.
				a := fparith.FromFloat64(float64(ph + 1))
				acc := fparith.FromFloat64(0)
				for r := 0; r < rows; r++ {
					acc = fparith.Add64(acc, fparith.Add64(fparith.Mul64(a, xs[s][r]), ys[s][r]))
				}
				p.Wait(sim.Duration(rows*3) * sim.Cycle)

				var total fparith.F64
				if stations == 1 {
					total = acc
				} else if s == 0 {
					// Accumulate circuit: inject the running sum, take it
					// back after every station has added its partial.
					send(p, k, fwd[0], acc)
					sum := recvF64(p, prev)
					// Broadcast circuit: circulate the total.
					send(p, k, fwd[0], sum)
					total = recvF64(p, prev)
				} else {
					sum := fparith.Add64(recvF64(p, prev), acc)
					send(p, k, fwd[s], sum)
					total = recvF64(p, prev)
					send(p, k, fwd[s], total)
				}
				totals[s][ph] = total
			}
		})
	}
	end := g.Run(0)
	if err := g.Err(); err != nil {
		return Report{}, err
	}

	// Verify against the host reference: the same fparith operations in
	// ring order must be bit-exact, so demand zero error.
	maxErr := 0.0
	for ph := 0; ph < phases; ph++ {
		a := fparith.FromFloat64(float64(ph + 1))
		want := fparith.FromFloat64(0)
		for s := 0; s < stations; s++ {
			acc := fparith.FromFloat64(0)
			for r := 0; r < rows; r++ {
				acc = fparith.Add64(acc, fparith.Add64(fparith.Mul64(a, xs[s][r]), ys[s][r]))
			}
			want = fparith.Add64(want, acc)
		}
		for s := 0; s < stations; s++ {
			if e := math.Abs(totals[s][ph].Float64() - want.Float64()); e > maxErr {
				maxErr = e
			}
		}
	}

	ks := g.Stats()
	flops := int64(stations) * int64(rows) * 3 * int64(phases)
	rep := newReport("pring", stations, sim.Duration(end), flops, ks)
	rep.Metrics["max_error"] = maxErr
	rep.Metrics["windows"] = float64(ks.Windows)
	rep.Metrics["cross_shard"] = float64(ks.CrossShard)
	if maxErr != 0 {
		return rep, fmt.Errorf("workloads: pring all-reduce off by %g", maxErr)
	}
	rep.Summary = fmt.Sprintf("Ring all-reduce over %d stations, %d phases × %d rows: %v simulated, %d windows",
		stations, phases, rows, sim.Duration(end), ks.Windows)
	return rep, nil
}

// send stages one ring frame and accounts its payload bytes.
func send(p *sim.Proc, k *sim.Kernel, x *sim.XChan, v fparith.F64) {
	k.Count("link.bytes", pringFrameBytes)
	x.Send(p, v)
}

// recvF64 receives one ring frame.
func recvF64(p *sim.Proc, x *sim.XChan) fparith.F64 {
	return x.Recv(p).(fparith.F64)
}
