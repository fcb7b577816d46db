package link

import (
	"testing"

	"tseries/internal/sim"
)

// nackEvery corrupts every k-th transmission attempt, forcing the
// receiver's checksum to nack it and the sender to retransmit.
type nackEvery struct {
	k, n int
}

func (inj *nackEvery) Corrupt(sublink string, data []byte) []int {
	inj.n++
	if inj.n%inj.k != 0 {
		return nil
	}
	return []int{0}
}

func benchSend(b *testing.B, size int, inj Injector) {
	k := sim.NewKernel()
	a, dst := pair(k)
	if inj != nil {
		a.SetInjector(inj)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := a.Sublink(0).Send(p, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			dst.Sublink(0).Recv(p)
		}
	})
	k.Run(0)
}

func BenchmarkSendClean(b *testing.B) { benchSend(b, 1024, nil) }
func BenchmarkSendRetry(b *testing.B) { benchSend(b, 1024, &nackEvery{k: 2}) }
func BenchmarkSendSmall(b *testing.B) { benchSend(b, 16, nil) }

// BenchmarkSendOwned64K streams snapshot-sized frames by handover: the
// receiver returns each frame to the sender for reuse, so the numbers
// are the link's own cost per frame, with no frame-sized allocation.
func BenchmarkSendOwned64K(b *testing.B) {
	const size, inFlight = 64<<10 + 4, 2
	k := sim.NewKernel()
	defer k.Close()
	a, dst := pair(k)
	free := sim.NewChan(k, "free", inFlight)
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			var frame []byte
			if i < inFlight {
				frame = make([]byte, size)
			} else {
				frame = free.Recv(p).([]byte)
			}
			if err := a.Sublink(0).SendOwned(p, frame); err != nil {
				b.Error(err)
				return
			}
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			free.Send(p, dst.Sublink(0).Recv(p))
		}
	})
	k.Run(0)
}
