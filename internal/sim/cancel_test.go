package sim

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count falls back to at most
// base, tolerating the runtime's own background goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: %d > base %d", runtime.NumGoroutine(), base)
}

// TestCancelMidRunUnwindsAllProcs cancels a context while a simulation
// with many interacting processes is running: Run must return promptly,
// Err must report the cancellation, and every process goroutine —
// including daemons and processes blocked on channels, timers, and
// resources — must exit.
func TestCancelMidRunUnwindsAllProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	k := NewKernelCtx(ctx)

	ch := NewChan(k, "ch", 0)
	res := NewResource(k, "res", 1)
	k.GoDaemon("drain", func(p *Proc) {
		for {
			ch.Recv(p)
		}
	})
	for i := 0; i < 8; i++ {
		k.Go("worker", func(p *Proc) {
			for {
				res.Use(p, 3*Cycle)
				ch.Send(p, 1)
				p.Wait(5 * Cycle)
			}
		})
	}
	// Cancel from outside once the simulation is demonstrably running.
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()

	done := make(chan Time, 1)
	go func() { done <- k.Run(0) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !k.Canceled() || k.Err() != context.Canceled {
		t.Fatalf("Canceled = %v, Err = %v; want true, context.Canceled", k.Canceled(), k.Err())
	}
	waitGoroutines(t, base)
}

// TestCancelBeforeRun covers the pre-canceled path: a kernel bound to an
// already-canceled context must kill freshly spawned processes before
// their bodies run.
func TestCancelBeforeRun(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := NewKernelCtx(ctx)
	ran := false
	k.Go("body", func(p *Proc) {
		// The first dispatch boundary fires the cancellation check, so
		// the body may start; any park must then unwind it.
		p.Wait(Cycle)
		p.Wait(Cycle)
		ran = true
	})
	k.Run(0)
	if k.Err() == nil {
		t.Fatal("Err = nil after canceled run")
	}
	if ran {
		t.Fatal("process body ran to completion under a canceled context")
	}
	waitGoroutines(t, base)
}

// TestUnboundContextCostsNothing pins the contract that a kernel without
// a bound context (or bound to Background) behaves exactly as before.
func TestUnboundContextCostsNothing(t *testing.T) {
	k := NewKernelCtx(context.Background())
	if k.cancelCh != nil {
		t.Fatal("Background context armed the cancel channel")
	}
	n := 0
	k.Go("count", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Wait(Cycle)
			n++
		}
	})
	k.Run(0)
	if n != 1000 || k.Err() != nil {
		t.Fatalf("n = %d, Err = %v", n, k.Err())
	}
}

// TestPanicTeardownLeaksNoGoroutines: a panicking process must still
// propagate its panic out of Run, but the other blocked processes must
// be unwound rather than stranded — the contract a long-running job
// server relies on to isolate a poisoned job.
func TestPanicTeardownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ch := NewChan(k, "ch", 0)
	for i := 0; i < 4; i++ {
		k.Go("blocked", func(p *Proc) {
			ch.Recv(p) // never satisfied
		})
	}
	k.Go("bomb", func(p *Proc) {
		p.Wait(Cycle)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("Run did not propagate the process panic")
			}
		}()
		k.Run(0)
	}()
	waitGoroutines(t, base)
}

// TestCloseReleasesFinishedRun: a run that ends normally leaves its
// daemons parked, and a horizon leaves work pending. Close must unwind
// all of them, on a lone kernel and across the shards of a group.
func TestCloseReleasesFinishedRun(t *testing.T) {
	base := runtime.NumGoroutine()
	populate := func(k *Kernel) []*Proc {
		ch := NewChan(k, "idle", 0)
		return []*Proc{
			k.GoDaemon("router", func(p *Proc) { ch.Recv(p) }),
			k.GoDaemon("heartbeat", func(p *Proc) {
				for {
					p.Wait(Microsecond)
				}
			}),
			k.Go("late", func(p *Proc) { p.Wait(Second) }),
		}
	}
	k := NewKernel()
	procs := populate(k)
	k.Run(Millisecond)
	k.Close()
	g := NewShardGroup(2)
	procs = append(procs, populate(g.Shard(0))...)
	procs = append(procs, populate(g.Shard(1))...)
	g.Run(Millisecond)
	g.Close()
	for _, p := range procs {
		if !p.Done() {
			t.Errorf("%s still parked after Close", p.Name())
		}
	}
	waitGoroutines(t, base)
}
