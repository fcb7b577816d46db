package bench

import (
	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// Datapath scenarios: the value-producing hot loops behind every
// experiment — row transfers, the fused vector-form element loops, and
// the link frame path with retransmission. They ride in BENCH_kernel.json
// beside the kernel scenarios so the regression gate covers them too.

// nackEvery corrupts every k-th transmission attempt, forcing the
// checksum-nack-retransmit path without ever exhausting the send budget.
type nackEvery struct {
	k, n int
}

// firstByte inverts every bit of a frame's first byte.
var firstByte = []int{0, 1, 2, 3, 4, 5, 6, 7}

func (c *nackEvery) Corrupt(string, []byte) []int {
	c.n++
	if c.n%c.k != 0 {
		return nil
	}
	return firstByte
}

func datapathScenarios() []scenario {
	return []scenario{
		{"mem_row_load", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			m := memory.New(k, "n0")
			var reg memory.VectorReg
			k.Go("cp", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					if err := m.LoadRow(p, j%memory.NumRows, &reg); err != nil {
						panic(err)
					}
				}
			})
			k.Run(0)
			return k.Stats().Events
		}},
		{"mem_row_store", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			m := memory.New(k, "n0")
			var reg memory.VectorReg
			k.Go("cp", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					if err := m.StoreRow(p, j%memory.NumRows, &reg); err != nil {
						panic(err)
					}
				}
			})
			k.Run(0)
			return k.Stats().Events
		}},
		{"fpu_form_saxpy64", fpuFormScenario(fpu.Op{Form: fpu.SAXPY, Prec: fpu.P64, X: 0, Y: 300, Z: 301, A: fparith.FromFloat64(1.5)})},
		{"fpu_form_dot64", fpuFormScenario(fpu.Op{Form: fpu.Dot, Prec: fpu.P64, X: 0, Y: 300})},
		{"fpu_form_vadd32", fpuFormScenario(fpu.Op{Form: fpu.VAdd, Prec: fpu.P32, X: 0, Y: 300, Z: 301})},
		{"link_send_retry", func(n int) int64 {
			k := sim.NewKernel()
			defer k.Close()
			la := link.NewLink(k, "a")
			lb := link.NewLink(k, "b")
			if err := link.Connect(la.Sublink(0), lb.Sublink(0)); err != nil {
				panic(err)
			}
			la.SetInjector(&nackEvery{k: 2})
			frame := make([]byte, 256)
			k.Go("tx", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					if err := la.Sublink(0).Send(p, frame); err != nil {
						panic(err)
					}
				}
			})
			k.Go("rx", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					la.Sublink(0).Peer().Recv(p)
				}
			})
			k.Run(0)
			return k.Stats().Events
		}},
	}
}

// fpuFormScenario builds a run function executing one vector form n
// times over prefilled operand rows.
func fpuFormScenario(op fpu.Op) func(n int) int64 {
	return func(n int) int64 {
		k := sim.NewKernel()
		defer k.Close()
		m := memory.New(k, "n0")
		u := fpu.New(k, "n0", m)
		for i := 0; i < memory.F64PerRow; i++ {
			m.PokeF64(op.X*memory.F64PerRow+i, fparith.FromFloat64(1.0+float64(i)*0.001))
			m.PokeF64(op.Y*memory.F64PerRow+i, fparith.FromFloat64(2.0-float64(i)*0.001))
		}
		k.Go("cp", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				if _, err := u.Run(p, op); err != nil {
					panic(err)
				}
			}
		})
		k.Run(0)
		return k.Stats().Events
	}
}
