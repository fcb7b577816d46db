package machine

import (
	"fmt"

	"tseries/internal/module"
	"tseries/internal/sim"
)

// Detector is the machine-level failure detector. It lives (logically)
// on module 0's system board and evaluates, every DetectInterval, the
// heartbeat ledgers of every module — module 0's read locally, the
// others' shipped over the system ring as kindHealth summaries. It
// discovers three failure classes without being told by the fault plan:
//
//   - Crashes: a dead board beats no more. Because all thread traffic
//     flows one way through the module chain, a dead slot also silences
//     every lower slot; the detector therefore confirms only the
//     HIGHEST-indexed silent slot of a module — the cut point — and
//     lets the lower slots speak for themselves once the thread is
//     re-cabled around the corpse.
//   - Hangs: beats keep arriving but the progress word they carry has
//     frozen past HangTimeout on a node that had been advancing.
//   - Lossy links: a channel whose retransmit count climbs faster than
//     LossyRetransmits per detect window is recorded (discovery only —
//     the link layer already masks the loss).
//
// Suspicion is phi-accrual style: silence is measured in units of the
// per-slot EWMA inter-beat gap, so a slot that naturally beats slowly
// (thread congestion) is not condemned by a fixed timeout.
type Detector struct {
	M  *Machine
	sv *Supervisor

	susp    int      // suspension depth
	floor   sim.Time // silence baseline after Resume
	started sim.Time

	confirmed map[int]bool // nodes already alarmed this round
	// priorHangs remembers every node ever condemned for a hang. Unlike
	// confirmed it survives Resume: a wrong hang pick is crashed,
	// repaired, and rolled back, which recreates the exact frozen-
	// progress tie that misled the pick — without a memory of past
	// convictions the detector would condemn the same innocent dependent
	// every round and the restart budget would drain without ever
	// reaching the true victim.
	priorHangs map[int]bool
	lastRtx    map[string]int64
	lossy      map[string]bool

	// LossyLinks lists the channels discovered to be persistently lossy.
	LossyLinks []string

	proc *sim.Proc
}

// Detection policy.
const (
	// HeartbeatInterval is how often each node publishes liveness along
	// its module's system thread.
	HeartbeatInterval = 100 * sim.Millisecond
	// DetectInterval is how often the detector evaluates the accrued
	// suspicion of every node.
	DetectInterval = 250 * sim.Millisecond
	// SuspectPhi and ConfirmPhi are the phi-accrual thresholds: a node
	// whose suspicion exceeds SuspectPhi is suspected, and the
	// most-downstream suspect of a module is confirmed dead once its
	// suspicion exceeds ConfirmPhi.
	SuspectPhi = 4
	ConfirmPhi = 8
	// HangTimeout declares a node hung when its published progress
	// word has not advanced for this long while the rest of the machine
	// moved on.
	HangTimeout = 30 * sim.Second
	// LossyRetransmits is how many retransmits within one detect window
	// mark a channel as persistently lossy.
	LossyRetransmits = 8
)

// NewDetector builds a detector for the machine, alarming through the
// given supervisor.
func NewDetector(m *Machine, sv *Supervisor) *Detector {
	return &Detector{
		M:          m,
		sv:         sv,
		confirmed:  map[int]bool{},
		priorHangs: map[int]bool{},
		lastRtx:    map[string]int64{},
		lossy:      map[string]bool{},
	}
}

// DetectedDeath is the detector's verdict that a node is dead, raised
// through the supervisor alarm. Silence is how long the node had been
// quiet when confirmed — the detection latency.
type DetectedDeath struct {
	Node    int
	Silence sim.Duration
}

func (e *DetectedDeath) Error() string {
	return fmt.Sprintf("detector: node %d confirmed dead after %v of silence", e.Node, e.Silence)
}

// DetectedHang is the detector's verdict that a node is wedged: still
// beating, progress frozen for Stall.
type DetectedHang struct {
	Node  int
	Stall sim.Duration
}

func (e *DetectedHang) Error() string {
	return fmt.Sprintf("detector: node %d confirmed hung after %v without progress", e.Node, e.Stall)
}

// Suspend pauses evaluation (nestable). The supervisor suspends around
// checkpoints and recovery: both flood the module threads for seconds,
// and the delayed beats would read as silence.
func (d *Detector) Suspend() { d.susp++ }

// Resume re-enables evaluation and resets the silence baseline to now,
// so beats delayed during the suspension are forgiven rather than
// accrued.
func (d *Detector) Resume() {
	if d.susp > 0 {
		d.susp--
	}
	if d.susp == 0 {
		d.floor = d.M.K.Now()
		d.confirmed = map[int]bool{}
	}
}

// Start launches the evaluation daemon and begins heartbeat publication
// on every module (heartbeats are opt-in; starting the detector is the
// opt).
func (d *Detector) Start() {
	d.started = d.M.K.Now()
	d.floor = d.started
	for _, mod := range d.M.Modules {
		mod.StartHeartbeats(HeartbeatInterval)
		if mod.Index != 0 && len(d.M.Modules) > 1 {
			mod.StartHealthPublisher(0, DetectInterval)
		}
	}
	d.proc = d.M.K.GoDaemon("machine/detector", func(p *sim.Proc) {
		for {
			p.Wait(DetectInterval)
			if d.susp > 0 {
				continue
			}
			d.evaluate(p.Now())
		}
	})
}

// Stop kills the evaluation daemon and every heartbeat/publisher
// daemon Start spawned. All of them wake on timers forever, so leaving
// any alive would keep the kernel's event queue non-empty and an
// unbounded Run would never drain.
func (d *Detector) Stop() {
	if d.proc != nil && !d.proc.Done() {
		d.proc.Kill()
	}
	for _, mod := range d.M.Modules {
		mod.StopHeartbeats()
	}
}

// evaluate runs one detection pass over every module's freshest ledger.
func (d *Detector) evaluate(now sim.Time) {
	home := d.M.Modules[0]
	type modLedger struct {
		mod *module.Module
		hs  module.HealthSnapshot
	}
	ledgers := make([]modLedger, 0, len(d.M.Modules))
	// First pass: did ANY image-carrying slot ever advance its progress
	// word? While nothing has, frozen progress means nothing (a workload
	// that never publishes progress must not be condemned); once peers
	// are advancing, a slot that never has is wedged, not slow.
	anyAdvanced := false
	for _, mod := range d.M.Modules {
		var hs module.HealthSnapshot
		if mod.Index == 0 {
			hs = mod.HealthSnapshot()
		} else {
			var ok bool
			hs, ok = home.PeerHealth(mod.Index)
			if !ok || hs.Time < d.floor {
				continue // no fresh summary yet
			}
		}
		for _, s := range hs.Slots {
			if !s.Bypassed && s.Advanced {
				anyAdvanced = true
			}
		}
		ledgers = append(ledgers, modLedger{mod, hs})
	}
	death := false
	var cands []hangCand
	for _, l := range ledgers {
		cs, dd := d.evaluateModule(now, l.mod, l.hs, anyAdvanced)
		death = death || dd
		cands = append(cands, cs...)
	}
	// Confirm at most ONE hang per pass, and none on a pass that
	// confirmed a death. A wedged board freezes not just its own
	// progress: peers blocked on it (a ring receive, a barrier) freeze
	// too, and from the board-level ledger the two are indistinguishable.
	// The heuristic picks the slot that froze EARLIEST (the victim stops
	// first; its dependents only stall when they reach the dependency),
	// breaking ties toward the higher slot as with the cut point. A
	// wrong pick is not fatal — the recovery's rollback unblocks every
	// false suspect and the restart budget bounds the rounds — but only
	// because already-condemned slots are deprioritized below: after a
	// rollback the same tie recurs, so a pick without that memory would
	// repeat its mistake forever instead of converging on the victim.
	if !death && len(cands) > 0 {
		pool := cands
		var fresh []hangCand
		for _, c := range cands {
			if !d.priorHangs[c.id] {
				fresh = append(fresh, c)
			}
		}
		if len(fresh) > 0 {
			pool = fresh // only re-condemn a past suspect once no one else is left
		}
		best := pool[0]
		for _, c := range pool[1:] {
			if c.adv < best.adv || (c.adv == best.adv && c.id > best.id) {
				best = c
			}
		}
		d.confirmed[best.id] = true
		d.priorHangs[best.id] = true
		d.M.K.Count("heal.detect_events", 1)
		d.M.K.Count("heal.detect_ns", int64(best.stall/sim.Nanosecond))
		d.M.K.Count("heal.hang_count", 1)
		d.sv.post(&DetectedHang{Node: best.id, Stall: best.stall})
	}
	d.scanLossy()
}

// hangCand is one slot whose progress has been frozen past HangTimeout
// while its beats keep arriving.
type hangCand struct {
	id    int
	adv   sim.Time // effective last-advance baseline
	stall sim.Duration
}

// since clamps a ledger instant to the silence baseline: nothing
// before the detector started or last resumed counts against a slot.
func (d *Detector) since(t sim.Time) sim.Time {
	if d.floor > t {
		t = d.floor
	}
	if d.started > t {
		t = d.started
	}
	return t
}

// silence is the raw quiet time behind a confirmation.
func (d *Detector) silence(now sim.Time, s module.SlotHealth) sim.Duration {
	return now.Sub(d.since(s.LastBeat))
}

// phi returns the suspicion level of one slot: silence measured in
// units of its smoothed inter-beat gap.
func (d *Detector) phi(now sim.Time, s module.SlotHealth) float64 {
	gap := s.EwmaGap
	if gap <= 0 {
		gap = HeartbeatInterval
	}
	return float64(d.silence(now, s)) / float64(gap)
}

// evaluateModule confirms at most one death (the module's cut point)
// and collects hang candidates for the machine-level pick.
func (d *Detector) evaluateModule(now sim.Time, mod *module.Module, hs module.HealthSnapshot, anyAdvanced bool) ([]hangCand, bool) {
	base := mod.Index * module.NodesPerModule
	var cands []hangCand
	// Walk from the top: the highest-indexed silent slot is the cut
	// point; anything below it is shadowed by the severed thread.
	for slot := len(hs.Slots) - 1; slot >= 0; slot-- {
		s := hs.Slots[slot]
		if s.Bypassed {
			continue
		}
		id := base + slot
		if phi := d.phi(now, s); phi >= ConfirmPhi {
			if !d.confirmed[id] {
				d.confirmed[id] = true
				sil := d.silence(now, s)
				d.M.K.Count("heal.detect_events", 1)
				d.M.K.Count("heal.detect_ns", int64(sil/sim.Nanosecond))
				d.sv.post(&DetectedDeath{Node: id, Silence: sil})
				return nil, true // lower slots are shadowed: re-evaluate after bypass
			}
			return nil, false
		} else if phi >= SuspectPhi {
			// Suspected but not yet condemned; it also shadows below.
			return cands, false
		}
		// Slot is beating. Frozen progress while beats still arrive is a
		// hang candidate — either the slot had been advancing and
		// stopped, or peers are advancing and this slot never started (a
		// board wedged before its first phase). Cold spares are exempt:
		// their frozen progress is by design.
		if !s.Spare && (s.Advanced || anyAdvanced) && !d.confirmed[id] {
			adv := d.since(s.LastAdvance)
			if stall := now.Sub(adv); stall > HangTimeout {
				cands = append(cands, hangCand{id: id, adv: adv, stall: stall})
			}
		}
	}
	return cands, false
}

// scanLossy looks for channels whose retransmit counters climbed by
// more than LossyRetransmits since the last pass. Across several shards
// the counters belong to other shards, so the scan reads the
// barrier-synced retransmit mirror instead of the live links — at most
// one window stale, which is deterministic for a fixed partition. One
// shard has no mirror (see build) and reads the links live.
func (d *Detector) scanLossy() {
	mirror := d.M.rtxMirror
	i := 0
	for _, nd := range d.M.Nodes {
		for li, l := range nd.Links {
			rtx := l.Retransmits
			if mirror != nil {
				rtx = mirror[i]
				i++
			}
			key := fmt.Sprintf("node%d/link%d", nd.ID, li)
			delta := rtx - d.lastRtx[key]
			d.lastRtx[key] = rtx
			if delta > LossyRetransmits && !d.lossy[key] {
				d.lossy[key] = true
				d.LossyLinks = append(d.LossyLinks, key)
				d.M.K.Count("heal.lossy_links", 1)
			}
		}
	}
}
