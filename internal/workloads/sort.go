package workloads

import (
	"context"

	"fmt"
	"math/rand"

	"tseries/internal/fparith"
	"tseries/internal/memory"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// SortResult reports an in-node record sort.
type SortResult struct {
	Records  int
	Elapsed  sim.Duration
	MoveTime sim.Duration // time spent physically moving records
	Moves    int
	Keys     []float64 // final key order, for verification
	Stats    sim.Stats // engine metrics at completion
}

func init() {
	RegisterFunc("sort", []string{"n", "seed"}, func(cfg Config) (Report, error) {
		r := rand.New(rand.NewSource(cfg.Seed))
		keys := make([]float64, cfg.N)
		for i := range keys {
			keys[i] = r.NormFloat64()
		}
		res, err := SortRecords(cfg.Context(), cfg.N, keys, true)
		if err != nil {
			return Report{}, err
		}
		rep := newReport("sort", 1, res.Elapsed, 0, res.Stats)
		for i := 1; i < len(res.Keys); i++ {
			if res.Keys[i-1] > res.Keys[i] {
				return rep, fmt.Errorf("workloads: sort keys out of order at %d", i)
			}
		}
		rep.Metrics["moves"] = float64(res.Moves)
		rep.Metrics["move_time_us"] = res.MoveTime.Seconds() * 1e6
		rep.Summary = fmt.Sprintf("Sort %d records on 1 node: %v simulated, %d record moves (%v moving)",
			res.Records, res.Elapsed, res.Moves, res.MoveTime)
		return rep, nil
	})
}

// SortRecords sorts fixed-size 1024-byte records by their leading 64-bit
// key, on one node. The paper's §II suggestion is taken literally: "An
// application might make use of this extraordinary speed by moving data
// physically, rather than keeping linked lists of pointers to vectors,
// as for example, in … sorting records."
//
// With moveRows true, each record exchange is two row-register transfers
// per record (1.6 µs per pair); with false, the control processor drags
// every 64-bit word through the random-access port (409.6 µs per pair) —
// the pointer-free but port-bound alternative.
//
// The sort is selection sort (deterministic, exchange-heavy — it
// showcases the move cost; the comparison scans use timed word reads
// either way).
func SortRecords(ctx context.Context, nRecords int, keys []float64, moveRows bool) (SortResult, error) {
	if nRecords <= 0 || nRecords > 512 {
		return SortResult{}, fmt.Errorf("workloads: 1..512 records")
	}
	if len(keys) != nRecords {
		return SortResult{}, fmt.Errorf("workloads: %d keys for %d records", len(keys), nRecords)
	}
	k := sim.NewKernelCtx(ctx)
	defer k.Close()
	nd := node.New(k, 0)
	// Record i occupies memory row 300+i; key at element 0, body filled
	// with a recognisable pattern tied to the key.
	const base = 300
	for i := 0; i < nRecords; i++ {
		nd.Mem.PokeF64((base+i)*memory.F64PerRow, fparith.FromFloat64(keys[i]))
		for j := 1; j < memory.F64PerRow; j++ {
			nd.Mem.PokeF64((base+i)*memory.F64PerRow+j, fparith.FromFloat64(keys[i]+float64(j)))
		}
	}

	res := SortResult{Records: nRecords}
	var firstErr error
	k.Go("sort", func(p *sim.Proc) {
		var scratch memory.VectorReg
		for i := 0; i < nRecords-1; i++ {
			// Find the minimum key among records i..n-1 (timed reads).
			minIdx := i
			minKey, err := nd.Mem.Read64(p, (base+i)*memory.F64PerRow)
			if err != nil {
				firstErr = err
				return
			}
			for j := i + 1; j < nRecords; j++ {
				kj, err := nd.Mem.Read64(p, (base+j)*memory.F64PerRow)
				if err != nil {
					firstErr = err
					return
				}
				if fparith.Less64(kj, minKey) {
					minKey, minIdx = kj, j
				}
			}
			if minIdx == i {
				continue
			}
			res.Moves++
			start := p.Now()
			if moveRows {
				var reg2 memory.VectorReg
				if err := nd.Mem.LoadRow(p, base+i, &scratch); err != nil {
					firstErr = err
					return
				}
				if err := nd.Mem.LoadRow(p, base+minIdx, &reg2); err != nil {
					firstErr = err
					return
				}
				if err := nd.Mem.StoreRow(p, base+i, &reg2); err != nil {
					firstErr = err
					return
				}
				if err := nd.Mem.StoreRow(p, base+minIdx, &scratch); err != nil {
					firstErr = err
					return
				}
			} else {
				if err := swapRowsSlow(p, nd, base+i, base+minIdx, memory.F64PerRow); err != nil {
					firstErr = err
					return
				}
			}
			res.MoveTime += p.Now().Sub(start)
		}
	})
	end := k.Run(0)
	if err := k.Err(); err != nil {
		return SortResult{}, err // canceled: results are partial
	}
	if firstErr != nil {
		return SortResult{}, firstErr
	}
	res.Elapsed = sim.Duration(end)
	res.Stats = k.Stats()
	res.Keys = make([]float64, nRecords)
	for i := range res.Keys {
		res.Keys[i] = nd.Mem.PeekF64((base + i) * memory.F64PerRow).Float64()
	}
	// Body integrity: each record's body must still match its key.
	for i := 0; i < nRecords; i++ {
		keyV := nd.Mem.PeekF64((base + i) * memory.F64PerRow).Float64()
		if got := nd.Mem.PeekF64((base+i)*memory.F64PerRow + 7).Float64(); got != keyV+7 {
			return SortResult{}, fmt.Errorf("workloads: record %d body separated from key", i)
		}
	}
	return res, nil
}
