package workloads

import (
	"context"
	"strings"
	"testing"

	"tseries/internal/fault"
	"tseries/internal/sim"
	"tseries/internal/stats"
)

func soakParams() SoakParams {
	return SoakParams{Dim: 3, Epochs: 2, PhasesPerEpoch: 2, RowsPerPhase: 2,
		Pad: 4 * sim.Second, Spares: 1}
}

func TestSoakFaultFree(t *testing.T) {
	res, err := Soak(context.Background(), soakParams())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("fault-free soak incorrect: %+v", res)
	}
	if res.Images != 7 {
		t.Fatalf("Images = %d, want 7 (8 nodes minus 1 spare)", res.Images)
	}
	if res.DetectEvents != 0 || res.Remaps != 0 || res.Rollbacks != 0 {
		t.Fatalf("fault-free soak healed something: %+v", res)
	}
	if res.LeakedProcs != 0 {
		t.Fatalf("leaked %d processes", res.LeakedProcs)
	}
	if res.Fingerprint != res.Golden {
		t.Fatalf("fault-free run is its own golden, got %#x vs %#x", res.Fingerprint, res.Golden)
	}
	// The host footprint stays sparse even though every node computed and
	// the modules checkpointed: only touched rows are resident, and the
	// snapshots' untouched-memory chunks cost nothing at rest.
	m := res.Mem
	if m.RowsMaterialized == 0 || m.RowsMaterialized >= m.RowsConfigured/4 {
		t.Fatalf("materialized %d of %d rows, want sparse (under a quarter)", m.RowsMaterialized, m.RowsConfigured)
	}
	if m.DiskRowsZero == 0 {
		t.Fatalf("checkpoints elided no all-zero segments: %+v", m)
	}
	if m.DiskResidentBytes >= m.DiskLogicalBytes {
		t.Fatalf("disk resident %d ≥ logical %d: dedup did nothing", m.DiskResidentBytes, m.DiskLogicalBytes)
	}
}

// TestSoakSilentCrashHealsViaHeartbeats is the acceptance scenario: a
// node crash the supervisor is NEVER told about (Silent), placed in the
// middle of a Pad window so no peer touches the corpse before the
// heartbeat detector can speak. The machine must discover the death
// from beat silence alone, remap the image onto the module's spare,
// roll back, and finish bit-identical to the fault-free golden twin.
func TestSoakSilentCrashHealsViaHeartbeats(t *testing.T) {
	p := soakParams()
	p.Plan = &fault.Plan{Seed: 1, Events: []fault.Event{
		{At: 18500 * sim.Millisecond, Kind: fault.Crash, Node: 3, Silent: true},
	}}
	res, err := Soak(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectEvents < 1 {
		t.Fatalf("no heartbeat detections recorded: %+v", res)
	}
	if res.Remaps != 1 {
		t.Fatalf("Remaps = %d, want 1\nheal log: %s", res.Remaps, strings.Join(res.HealLog, "\n"))
	}
	if res.Rollbacks < 1 {
		t.Fatalf("Rollbacks = %d, want >= 1", res.Rollbacks)
	}
	if !res.Correct || res.Fingerprint != res.Golden {
		t.Fatalf("healed run diverged from golden: %#x vs %#x\nheal log: %s",
			res.Fingerprint, res.Golden, strings.Join(res.HealLog, "\n"))
	}
	// Detection latency must be bounded: phi-accrual on a 100ms beat
	// should condemn the cut point within a few seconds, not minutes.
	if res.DetectAvg <= 0 || res.DetectAvg > 3*sim.Second {
		t.Fatalf("detection latency %v outside (0, 3s]", res.DetectAvg)
	}
	if res.LeakedProcs != 0 || res.DiskUnitsHeld != 0 {
		t.Fatalf("leaked resources: procs=%d disk=%d", res.LeakedProcs, res.DiskUnitsHeld)
	}
	found := false
	for _, ev := range res.HealLog {
		if strings.Contains(ev, "remapped to spare") {
			found = true
		}
	}
	if !found {
		t.Fatalf("heal log missing remap entry: %s", strings.Join(res.HealLog, "\n"))
	}
}

// TestSoakHangDetected wedges a node silently: its body dies but the
// board keeps beating with a frozen progress word. Only the
// hang-detection path (frozen progress past HangTimeout on a board that
// had been advancing) can find it.
func TestSoakHangDetected(t *testing.T) {
	p := soakParams()
	p.Epochs = 1
	p.Plan = &fault.Plan{Seed: 1, Events: []fault.Event{
		{At: 18500 * sim.Millisecond, Kind: fault.Hang, Node: 3, Silent: true},
	}}
	res, err := Soak(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Counters["heal.hang_count"] != 1 {
		t.Fatalf("heal.hang_count = %d, want 1", res.Stats.Counters["heal.hang_count"])
	}
	if res.Remaps != 1 {
		t.Fatalf("Remaps = %d, want 1 (hung board retired to spare)\nheal log: %s",
			res.Remaps, strings.Join(res.HealLog, "\n"))
	}
	if !res.Correct {
		t.Fatalf("hang recovery diverged: %#x vs %#x", res.Fingerprint, res.Golden)
	}
}

// TestSoakDegradedWhenNoSpares exhausts the (empty) spare pool: the
// dead board must be repaired in place at the BoardSwapTime stall and
// the run must still match its golden twin.
func TestSoakDegradedWhenNoSpares(t *testing.T) {
	p := soakParams()
	p.Spares = 0
	p.Plan = &fault.Plan{Seed: 1, Events: []fault.Event{
		{At: 18500 * sim.Millisecond, Kind: fault.Crash, Node: 2, Silent: true},
	}}
	res, err := Soak(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 8 {
		t.Fatalf("Images = %d, want 8 (no spares held back)", res.Images)
	}
	if res.Degraded != 1 || res.Remaps != 0 {
		t.Fatalf("Degraded = %d Remaps = %d, want 1/0\nheal log: %s",
			res.Degraded, res.Remaps, strings.Join(res.HealLog, "\n"))
	}
	if res.Elapsed < 120*sim.Second {
		t.Fatalf("elapsed %v did not pay the board-swap stall", res.Elapsed)
	}
	if !res.Correct {
		t.Fatalf("degraded recovery diverged: %#x vs %#x", res.Fingerprint, res.Golden)
	}
}

// TestSoakChaosDeterministic expands the same chaos recipe twice; both
// runs must heal to bit-identical final state.
func TestSoakChaosDeterministic(t *testing.T) {
	run := func() SoakResult {
		p := soakParams()
		p.Chaos = &fault.Chaos{Seed: 7, Dur: 20 * sim.Second, Crashes: 1}
		res, err := Soak(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.Correct || !b.Correct {
		t.Fatalf("chaos soak diverged from golden: %+v / %+v", a.Correct, b.Correct)
	}
	if a.Fingerprint != b.Fingerprint || a.Remaps != b.Remaps || a.Rollbacks != b.Rollbacks {
		t.Fatalf("chaos soak not deterministic: %#x/%d/%d vs %#x/%d/%d",
			a.Fingerprint, a.Remaps, a.Rollbacks, b.Fingerprint, b.Remaps, b.Rollbacks)
	}
}

// TestSoakHangThenCrashCascade layers two silent faults of different
// classes: a hang (board beats, progress frozen) followed by a crash in
// the same module. The first hang evaluation ties the victim with the
// ring dependent that blocked on it at the same instant and may condemn
// the wrong board; the detector's memory of past hang convictions must
// steer the next round onto the true victim instead of re-condemning
// the same innocent forever. The run must still end bit-identical to
// the fault-free twin within the restart budget.
func TestSoakHangThenCrashCascade(t *testing.T) {
	p := soakParams()
	p.Plan = &fault.Plan{Seed: 7, Events: []fault.Event{
		{At: 19928300 * sim.Microsecond, Kind: fault.Hang, Node: 1, Silent: true},
		{At: 47372600 * sim.Microsecond, Kind: fault.Crash, Node: 2, Silent: true},
	}}
	res, err := Soak(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Fingerprint != res.Golden {
		t.Fatalf("cascade diverged from golden: %#x vs %#x\nheal log: %s",
			res.Fingerprint, res.Golden, strings.Join(res.HealLog, "\n"))
	}
	// One spare absorbs one fault; the rest go degraded. Both repair
	// paths must have fired.
	if res.Remaps < 1 || res.Degraded < 1 {
		t.Fatalf("Remaps = %d Degraded = %d, want both paths exercised\nheal log: %s",
			res.Remaps, res.Degraded, strings.Join(res.HealLog, "\n"))
	}
	if res.LeakedProcs != 0 || res.DiskUnitsHeld != 0 {
		t.Fatalf("leaked resources: procs=%d disk=%d", res.LeakedProcs, res.DiskUnitsHeld)
	}
}

// TestSoakTwinIsFaultFree pins the golden twin a chaos soak is judged
// against: it runs the same shape with no faults at all, so a heal that
// left the machine in a wrong state cannot match it.
func TestSoakTwinIsFaultFree(t *testing.T) {
	p := soakParams()
	p.Chaos = &fault.Chaos{Seed: 7, Dur: 20 * sim.Second, Crashes: 1}
	p.Plan = &fault.Plan{Seed: 1, Events: []fault.Event{
		{At: 18500 * sim.Millisecond, Kind: fault.Crash, Node: 3, Silent: true},
	}}
	twin, err := soakRun(context.Background(), soakTwin(p), nil)
	if err != nil {
		t.Fatal(err)
	}
	if twin.Faults != (stats.FaultCounters{}) {
		t.Fatalf("twin saw faults: %+v", twin.Faults)
	}
	if twin.DetectEvents != 0 || twin.Remaps != 0 || twin.Degraded != 0 || twin.Rollbacks != 0 {
		t.Fatalf("twin healed something: detections=%d remaps=%d degraded=%d rollbacks=%d",
			twin.DetectEvents, twin.Remaps, twin.Degraded, twin.Rollbacks)
	}
	res, err := Soak(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Crashes == 0 {
		t.Fatalf("the soak itself injected no crash: %+v", res.Faults)
	}
	if !res.Correct || res.Golden != twin.Fingerprint {
		t.Fatalf("soak judged against %#x (correct=%v), want the fault-free twin's %#x",
			res.Golden, res.Correct, twin.Fingerprint)
	}
}

// TestSoakDivergenceIsReported is the oracle's negative case: a soak
// whose final state differs from its twin's must not report Correct.
func TestSoakDivergenceIsReported(t *testing.T) {
	p := soakParams()
	short := p
	short.Epochs = 1 // one epoch fewer: fewer result rows, a different final state
	res, err := soakRun(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := soakRun(context.Background(), short, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint == other.Fingerprint {
		t.Fatalf("different final states share fingerprint %#x", res.Fingerprint)
	}
	matched := res
	matched.judge(res.Fingerprint)
	if !matched.Correct {
		t.Fatalf("a run judged against its own final state is not correct: %+v", matched)
	}
	res.judge(other.Fingerprint)
	if res.Correct {
		t.Fatalf("soak with fingerprint %#x reported correct against twin %#x", res.Fingerprint, res.Golden)
	}
}
