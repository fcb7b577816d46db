package machine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tseries/internal/comm"
	"tseries/internal/fault"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/sim"
	"tseries/internal/stats"
)

// Recovery policy. The restart budget and drain time are the
// supervisor's; the heartbeat and detection constants sit with the
// Detector, the board-swap stall with the Healer.
const (
	// MaxRestarts bounds how many recoveries a supervised run tolerates
	// before giving up.
	MaxRestarts = 4
	// DrainTime is how long the supervisor lets in-flight DMA and router
	// activity settle after halting, before flushing state.
	DrainTime = 500 * sim.Millisecond
)

// Supervisor is the recovery orchestrator the paper's system ring and
// disk exist to support: it runs a distributed workload under watch,
// and when an unrecoverable fault surfaces — a node crash, a link that
// stays dead past its retransmit budget, a memory parity error — it
// halts the machine, flushes in-flight traffic, restores the last
// consistent snapshot from the module disks, and replays. A workload
// that keeps its progress in checkpointed node memory resumes from the
// last completed phase rather than from scratch. With a Healer
// attached, the repair step of that recovery remaps dead boards' images
// onto spares instead of repairing the boards in place.
type Supervisor struct {
	M *Machine

	alarm *sim.Chan
	procs []*sim.Proc
	// hung marks boards wedged by a hang fault. The wedge is a property
	// of the BOARD, not of whatever process happened to be running: a
	// body spawned onto a hung board later (a hang that landed between
	// restarts, or during boot) stops dead immediately. It is a slice,
	// not a map, so concurrent same-window writes from different shards
	// of a partitioned machine (always to distinct indices — each shard
	// wedges only its own boards) stay race-free.
	hung      []bool
	lastSnaps []*module.Snapshot
	prevSnaps []*module.Snapshot
	lastCkpt  sim.Time

	// Uplinks into the shard-0 control plane: up[s]/okUp[s] deliver
	// alarms and ok tokens from shard s ≥ 1 into the alarm and okc
	// channels. gen tags ok tokens so leftovers of a halted restart are
	// skipped.
	up   []*sim.XChan
	okc  *sim.Chan
	okUp []*sim.XChan
	gen  int64

	// heal, when attached by NewHealer, maps images to boards, runs the
	// remap walk as the repair step, and owns the detector, which is
	// suspended around checkpoints and recovery so the thread
	// congestion they cause is not read as silence.
	heal *Healer

	// Counters for FaultReport.
	Crashes          int64
	ParityFaults     int64
	Rollbacks        int64
	RestoreFallbacks int64

	// LastRecovery is the halt-to-replay time of the most recent
	// recovery (the experiment E17 recovery-time metric).
	LastRecovery sim.Duration
}

// NewSupervisor attaches a recovery supervisor to a machine.
func NewSupervisor(m *Machine) *Supervisor {
	shards := m.Group.Shards()
	sv := &Supervisor{
		M:     m,
		alarm: sim.NewChan(m.K, "supervisor/alarm", 1024),
		okc:   sim.NewChan(m.K, "supervisor/ok", 4*m.Spec.Nodes),
		hung:  make([]bool, m.Spec.Nodes),
		up:    make([]*sim.XChan, shards),
		okUp:  make([]*sim.XChan, shards),
	}
	// Persistent uplink edges from every non-control shard into the
	// shard-0 alarm and ok channels, with the plan's lookahead.
	for s := 1; s < shards; s++ {
		sv.up[s] = m.Group.ConnectInto(s, 0, fmt.Sprintf("sv/alarmup%d", s), m.Plan.Lookahead, sv.alarm)
		sv.okUp[s] = m.Group.ConnectInto(s, 0, fmt.Sprintf("sv/okup%d", s), m.Plan.Lookahead, sv.okc)
	}
	return sv
}

// post raises an alarm from kernel (event-callback) context, where no
// process is running to block on the channel send.
func (sv *Supervisor) post(err error) {
	sv.M.K.Go("supervisor/alarmpost", func(p *sim.Proc) {
		sv.alarm.Send(p, err)
	})
}

// postNode raises an alarm about node id from that node's shard: off
// shard 0 the posting process runs on the owning shard's kernel and the
// alarm travels the staged uplink edge.
func (sv *Supervisor) postNode(id int, err error) {
	s := sv.M.shardOf(id)
	if s == 0 {
		sv.post(err)
		return
	}
	up := sv.up[s]
	sv.M.Group.Shard(s).Go("supervisor/alarmpost", func(p *sim.Proc) {
		up.Send(p, err)
	})
}

// nodeCrashed is the fault injector's notification that a node died.
// The node's application process is killed on the spot — its board
// stopped executing. A declared crash also alarms the supervisor; a
// silent one is left for the heartbeat failure detector to find.
func (sv *Supervisor) nodeCrashed(id int, declared bool) {
	// On a partitioned machine this runs on the crashed node's shard;
	// two shards can take a crash in the same window, so the counter is
	// atomic (its final value is still deterministic — it counts events).
	atomic.AddInt64(&sv.Crashes, 1)
	sv.killBody(id)
	if declared {
		sv.postNode(id, &comm.CrashedError{Node: id})
	}
}

// nodeHung wedges a node: its application process stops dead, but its
// links stay up and the board keeps beating with a frozen progress
// word. Only a detector watching progress can tell this from slow code.
func (sv *Supervisor) nodeHung(id int) {
	sv.hung[id] = true
	sv.killBody(id)
}

func (sv *Supervisor) killBody(id int) {
	if id < len(sv.procs) {
		if pr := sv.procs[id]; pr != nil && !pr.Done() {
			pr.Kill()
		}
	}
}

// Checkpoint snapshots every module now and makes it the rollback
// target, keeping the previous snapshot as a fallback against disk
// corruption.
func (sv *Supervisor) Checkpoint(p *sim.Proc) error {
	// A snapshot floods the module threads for seconds; a detector left
	// watching would read the delayed beats as silence. The detector
	// state lives on shard 0, while the checkpointing process may run
	// anywhere — a Global section flips the suspension with every shard
	// quiescent (inline on one shard).
	if h := sv.heal; h != nil {
		sv.M.Group.Global(p, func(sim.Time) { h.Det.Suspend() })
		defer sv.M.Group.Global(p, func(sim.Time) { h.Det.Resume() })
	}
	snaps, err := sv.M.SnapshotAll(p)
	if err != nil {
		return err
	}
	sv.prevSnaps, sv.lastSnaps = sv.lastSnaps, snaps
	sv.lastCkpt = p.Now()
	return nil
}

// MaybeCheckpoint checkpoints if at least interval has elapsed since
// the last one. interval <= 0 disables periodic checkpointing.
func (sv *Supervisor) MaybeCheckpoint(p *sim.Proc, interval sim.Duration) error {
	if interval <= 0 || p.Now().Sub(sv.lastCkpt) < interval {
		return nil
	}
	return sv.Checkpoint(p)
}

// killBodies halts every outstanding body process. Give-up paths must
// call this before abandoning a run: a body left blocked on a dead
// peer's message would wedge the kernel drain as a phantom deadlock.
func (sv *Supervisor) killBodies() {
	for _, pr := range sv.procs {
		if pr != nil && !pr.Done() {
			pr.Kill()
		}
	}
}

// noteFault classifies a body error for the counters. Bodies on
// different shards of a partitioned machine can fault in the same
// window, so the counter is atomic.
func (sv *Supervisor) noteFault(err error) {
	var pe *memory.ParityError
	if errors.As(err, &pe) {
		atomic.AddInt64(&sv.ParityFaults, 1)
	}
}

// okTok is one body-completed token, tagged with the restart
// generation so tokens of a halted restart are skipped.
type okTok struct{ gen int64 }

// toControl sends v from a body on shard toward the shard-0 channel c:
// directly on shard 0, through the shard's uplink edge elsewhere.
func toControl(bp *sim.Proc, shard int, c *sim.Chan, up []*sim.XChan, v interface{}) {
	if shard == 0 {
		c.Send(bp, v)
		return
	}
	up[shard].Send(bp, v)
}

// Run executes body once per image under supervision: it takes an
// initial checkpoint, spawns one process per image on the board that
// carries it, and waits for all of them — or for a fault. A body that
// returns an error raises an alarm (so do the fault injector, for
// declared crashes, and the detector); the supervisor then recovers
// and replays, up to MaxRestarts times. Bodies spawn on their boards'
// own shards inside a Global section, completions and alarms travel the
// staged uplink edges, and the supervising process (which must run on
// shard 0, where the alarm channel lives) collects them.
func (sv *Supervisor) Run(p *sim.Proc, body func(bp *sim.Proc, img int) error) error {
	m := sv.M
	// Without a healer the images are the node ids, in order.
	imgs := make([]int, len(m.Nodes))
	for i := range imgs {
		imgs[i] = i
	}
	boardOf := func(img int) int { return img }
	if h := sv.heal; h != nil {
		imgs = h.Images()
		boardOf = func(img int) int { return h.physOf[img] }
	}
	restart := 0
	// The boot checkpoint itself can be torn by a fault (the stall
	// watchdog turns that into an error rather than a wedged machine);
	// recover and retry within the restart budget.
	for {
		err := sv.Checkpoint(p)
		if err == nil {
			break
		}
		if restart >= MaxRestarts {
			return err
		}
		restart++
		if err := sv.recoverRetrying(p, &restart, err); err != nil {
			return err
		}
	}
	if h := sv.heal; h != nil {
		m.Group.Global(p, func(sim.Time) { h.Det.Start() })
		defer m.Group.Global(p, func(sim.Time) { h.Det.Stop() })
	}
	for ; ; restart++ {
		sv.gen++
		gen := sv.gen
		sv.procs = make([]*sim.Proc, len(m.Nodes))
		m.Group.Global(p, func(sim.Time) {
			for _, img := range imgs {
				img := img
				phys := boardOf(img)
				shard := m.shardOf(phys)
				pr := m.Group.Shard(shard).Go(fmt.Sprintf("supervisor/img%d", img), func(bp *sim.Proc) {
					if err := body(bp, img); err != nil {
						sv.noteFault(err)
						toControl(bp, shard, sv.alarm, sv.up, err)
						return
					}
					toControl(bp, shard, sv.okc, sv.okUp, okTok{gen: gen})
				})
				sv.procs[phys] = pr
				if sv.hung[phys] {
					// The board wedged before this body ever ran; it stops
					// dead, and only the progress-watching detector can tell.
					pr.Kill()
				}
			}
		})
		var faultErr error
		for oks := 0; oks < len(imgs) && faultErr == nil; {
			which, v := sim.Select(p, sv.alarm, sv.okc)
			if which == 0 {
				faultErr = v.(error)
			} else if v.(okTok).gen == gen {
				oks++
			}
		}
		if faultErr == nil {
			return nil
		}
		if restart >= MaxRestarts {
			m.Group.Global(p, func(sim.Time) { sv.killBodies() })
			return fmt.Errorf("supervisor: giving up after %d restarts: %v", restart, faultErr)
		}
		if err := sv.recoverRetrying(p, &restart, faultErr); err != nil {
			return err
		}
	}
}

// recoverRetrying runs recover, retrying within the restart budget
// when recovery is itself interrupted (a second board dying
// mid-restore).
func (sv *Supervisor) recoverRetrying(p *sim.Proc, restart *int, cause error) error {
	for {
		err := sv.recover(p, cause)
		if err == nil {
			return nil
		}
		*restart++
		if *restart > MaxRestarts {
			return err
		}
		cause = err
	}
}

// recover is the recovery sequence: halt, drain, flush and repair,
// restore, and clear stale alarms. The halt/flush/repair steps mutate
// state owned by every shard, so each runs in a Global section; the
// drain wait between them is real simulated time, during which
// in-flight DMA transfers, router forwards and staged frames (bounded
// by the frame transfer time, microseconds against a 500 ms drain)
// settle, so nothing re-enters the queues behind our back. The repair
// step is the one fork: without a healer, dead boards are repaired in
// place; with one, the remap walk moves their images onto spares.
func (sv *Supervisor) recover(p *sim.Proc, cause error) error {
	m, h := sv.M, sv.heal
	start := p.Now()
	if h != nil {
		m.Group.Global(p, func(sim.Time) { h.Det.Suspend() })
		defer m.Group.Global(p, func(sim.Time) { h.Det.Resume() })
	}
	m.Group.Global(p, func(sim.Time) {
		sv.killBodies()
		// A crash can land mid-checkpoint; abort the snapshot workers
		// too, or a stale collector would swallow the chunks of later
		// snapshots.
		for _, mod := range m.Modules {
			mod.AbortSnapshot()
		}
	})
	p.Wait(DrainTime)
	if h != nil {
		if err := h.remap(p, cause); err != nil {
			return err
		}
	} else {
		m.Group.Global(p, func(sim.Time) {
			sv.flush()
			for _, nd := range m.Nodes {
				if !nd.Alive() {
					nd.Repair()
				}
			}
		})
	}
	// With no snapshot on disk (the boot checkpoint was torn) there is
	// nothing to rewind: the boards still hold their boot state, and
	// Run takes the checkpoint again.
	if sv.lastSnaps != nil {
		if err := sv.restoreLatest(p); err != nil {
			return err
		}
		sv.Rollbacks++
	}
	sv.drainAlarms()
	sv.LastRecovery = p.Now().Sub(start)
	if h != nil {
		m.K.Count("heal.recover_ns", int64(sv.LastRecovery/sim.Nanosecond))
	}
	return nil
}

// flush drops every in-flight message and system-thread transfer. Call
// it with every shard quiescent.
func (sv *Supervisor) flush() {
	sv.M.Net.Flush()
	for _, mod := range sv.M.Modules {
		mod.FlushThread()
	}
}

// restoreLatest rewinds to the newest snapshot, falling back one
// generation if its blocks rotted on disk.
func (sv *Supervisor) restoreLatest(p *sim.Proc) error {
	if err := sv.M.RestoreAll(p, sv.lastSnaps); err != nil {
		sv.RestoreFallbacks++
		if sv.prevSnaps == nil {
			return fmt.Errorf("supervisor: restore failed with no older snapshot: %v", err)
		}
		sv.lastSnaps, sv.prevSnaps = sv.prevSnaps, nil
		if err := sv.M.RestoreAll(p, sv.lastSnaps); err != nil {
			return fmt.Errorf("supervisor: fallback restore failed: %v", err)
		}
	}
	return nil
}

func (sv *Supervisor) drainAlarms() {
	for {
		if _, ok := sv.alarm.TryRecv(); !ok {
			break
		}
	}
}

// ArmFaults attaches a fault plan to the machine: the plan's bit-error
// injector goes on every link (node links and module system links),
// and each timed event is scheduled on its target's owning shard. sv
// may be nil when no supervision is wanted (pure injection
// experiments); otherwise it hears of every crash and hang.
func (m *Machine) ArmFaults(plan *fault.Plan, sv *Supervisor) {
	if plan == nil {
		return
	}
	// One shard keeps the plan itself as the injector on every link: a
	// single splitmix64 stream consumed in kernel order, which is what
	// every serial fault fingerprint was recorded with. Several shards
	// cannot share one stream, so each link gets its own, derived from
	// (seed, link name) — created here, in host context, so stream
	// creation never depends on simulation scheduling.
	inject := func(l *link.Link) link.Injector { return plan }
	if m.Group.Shards() > 1 {
		m.faults = fault.NewSharded(plan)
		inject = func(l *link.Link) link.Injector { return m.faults.ForLink(l.Name) }
	}
	for _, nd := range m.Nodes {
		for _, l := range nd.Links {
			l.SetInjector(inject(l))
		}
	}
	for _, mod := range m.Modules {
		mod.Sys.Link.SetInjector(inject(mod.Sys.Link))
	}
	for _, ev := range plan.Events {
		ev := ev
		shard := 0
		switch ev.Kind {
		case fault.DiskCorrupt:
			if ev.Mod < len(m.Modules) {
				shard = m.Plan.Assign[ev.Mod]
			}
		default:
			if ev.Node < len(m.Nodes) {
				shard = m.shardOf(ev.Node)
			}
		}
		m.Group.Shard(shard).At(sim.Time(ev.At), func() { m.applyFault(ev, sv) })
	}
}

// applyFault executes one timed fault event.
func (m *Machine) applyFault(ev fault.Event, sv *Supervisor) {
	switch ev.Kind {
	case fault.Crash:
		if ev.Node < len(m.Nodes) && m.Nodes[ev.Node].Alive() {
			m.Nodes[ev.Node].Crash()
			if sv != nil {
				sv.nodeCrashed(ev.Node, !ev.Silent)
			}
		}
	case fault.Hang:
		if ev.Node < len(m.Nodes) && m.Nodes[ev.Node].Alive() && sv != nil {
			sv.nodeHung(ev.Node)
		}
	case fault.LinkDown, fault.LinkUp:
		if ev.Node < len(m.Nodes) && ev.Dim < m.Dim {
			// Severing one end kills the channel both ways: neither
			// side sees acknowledges while it is down.
			m.Nodes[ev.Node].Sublink(comm.CubeSublink(ev.Dim)).SetDown(ev.Kind == fault.LinkDown)
		}
	case fault.FlipBit:
		if ev.Node < len(m.Nodes) {
			m.Nodes[ev.Node].Mem.FlipBit(ev.Addr, ev.Bit)
		}
	case fault.DiskCorrupt:
		if ev.Mod < len(m.Modules) {
			m.Modules[ev.Mod].Disk.CorruptNth(ev.Blk)
		}
	}
}

// FaultReport aggregates the fault and recovery counters of the whole
// machine: the plan's injection totals, every link's error accounting,
// every endpoint's routing decisions, the disks' scrub results, and
// the supervisor's rollback history. plan and sv may be nil.
func (m *Machine) FaultReport(plan *fault.Plan, sv *Supervisor) stats.FaultCounters {
	var fc stats.FaultCounters
	if plan != nil {
		fc.FramesCorrupted = plan.FramesCorrupted
		fc.BitsFlipped = plan.BitsFlipped
	}
	if m.faults != nil {
		// Per-link injection (several shards): those streams hold the counts
		// (the plan's own stream was never consumed).
		f, b := m.faults.Totals()
		fc.FramesCorrupted += f
		fc.BitsFlipped += b
	}
	addLink := func(l *link.Link) {
		fc.Detected += l.Corrupted - l.Undetected
		fc.Undetected += l.Undetected
		fc.Retransmits += l.Retransmits
		fc.Timeouts += l.Timeouts
		fc.Drops += l.Drops
	}
	for _, nd := range m.Nodes {
		for _, l := range nd.Links {
			addLink(l)
		}
	}
	for _, mod := range m.Modules {
		addLink(mod.Sys.Link)
		fc.DiskCorrupted += mod.Disk.Corrupted
	}
	for id := 0; id < m.Net.Size(); id++ {
		ep := m.Net.Endpoint(id)
		fc.Detours += ep.Detours
		fc.RouteDrops += ep.RouteDrops
	}
	if sv != nil {
		fc.Crashes = sv.Crashes
		fc.ParityFaults = sv.ParityFaults
		fc.Rollbacks = sv.Rollbacks
		fc.RestoreFallbacks = sv.RestoreFallbacks
	}
	return fc
}
