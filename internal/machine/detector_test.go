package machine

import (
	"testing"

	"tseries/internal/sim"
)

func TestLossyLinkScan(t *testing.T) {
	k := sim.NewKernel()
	m, err := New(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSupervisor(m)
	d := NewDetector(m, sv)

	// A retransmit burst past the budget marks the channel lossy; the
	// verdict is recorded once, not re-raised every pass.
	m.Nodes[1].Links[0].Retransmits += int64(LossyRetransmits) + 12
	d.scanLossy()
	if len(d.LossyLinks) != 1 || d.LossyLinks[0] != "node1/link0" {
		t.Fatalf("LossyLinks = %v, want [node1/link0]", d.LossyLinks)
	}
	if got := k.Stats().Counters["heal.lossy_links"]; got != 1 {
		t.Fatalf("heal.lossy_links = %d, want 1", got)
	}
	d.scanLossy()
	if len(d.LossyLinks) != 1 {
		t.Fatalf("quiet pass re-flagged: %v", d.LossyLinks)
	}

	// Sub-budget drizzle on another channel is retransmit business as
	// usual, not a lossy verdict.
	m.Nodes[2].Links[1].Retransmits += int64(LossyRetransmits) - 2
	d.scanLossy()
	if len(d.LossyLinks) != 1 {
		t.Fatalf("sub-budget channel flagged: %v", d.LossyLinks)
	}

	// A second burst on a new channel accumulates.
	m.Nodes[0].Links[1].Retransmits += 3 * int64(LossyRetransmits)
	d.scanLossy()
	if len(d.LossyLinks) != 2 || d.LossyLinks[1] != "node0/link1" {
		t.Fatalf("LossyLinks = %v, want second entry node0/link1", d.LossyLinks)
	}
}

func TestDetectorSuspendResume(t *testing.T) {
	k := sim.NewKernel()
	m, err := New(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSupervisor(m)
	d := NewDetector(m, sv)

	// Suspension nests: two Suspends need two Resumes before the floor
	// resets and confirmations clear.
	d.confirmed[3] = true
	d.Suspend()
	d.Suspend()
	d.Resume()
	if len(d.confirmed) != 1 {
		t.Fatal("inner Resume cleared state while still suspended")
	}
	k.Go("tick", func(p *sim.Proc) { p.Wait(sim.Second) })
	k.Run(0)
	d.Resume()
	if d.floor != k.Now() {
		t.Fatalf("floor = %v, want reset to now (%v)", d.floor, k.Now())
	}
	if len(d.confirmed) != 0 {
		t.Fatal("outer Resume kept stale confirmations")
	}
	// A spurious extra Resume must not underflow the depth.
	d.Resume()
	if d.susp != 0 {
		t.Fatalf("suspension depth = %d after extra Resume", d.susp)
	}
}

// TestDetectorConfirmsCutPointOnly drives one evaluation pass against a
// hand-built silence pattern: with slots 1 AND 3 of a module gone quiet,
// only the highest (the cut point, slot 3) may be condemned — the thread
// flows one way, so slot 1's silence proves nothing while 3 is in the
// chain.
func TestDetectorConfirmsCutPointOnly(t *testing.T) {
	k := sim.NewKernel()
	m, err := New(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSupervisor(m)
	d := NewDetector(m, sv)

	// Heartbeats and detection on; crash node 3 silently mid-run, then
	// let the evaluation daemon notice. The controller stops everything
	// so the kernel can drain.
	var verdict error
	k.Go("ctl", func(p *sim.Proc) {
		d.Start()
		p.Wait(2 * sim.Second)
		m.Nodes[3].Crash()
		which, v := sim.Select(p, sv.alarm, sim.NewChan(k, "never", 1))
		if which == 0 {
			verdict = v.(error)
		}
		d.Stop()
	})
	k.Run(0)
	dd, ok := verdict.(*DetectedDeath)
	if !ok {
		t.Fatalf("alarm = %v, want DetectedDeath", verdict)
	}
	if dd.Node != 3 {
		t.Fatalf("condemned node %d, want 3 (the cut point)", dd.Node)
	}
	if dd.Silence <= 0 || dd.Silence > 20*HeartbeatInterval {
		t.Fatalf("detection latency %v implausible", dd.Silence)
	}
	if got := k.Stats().Counters["heal.detect_events"]; got != 1 {
		t.Fatalf("heal.detect_events = %d, want exactly the cut point", got)
	}
}
