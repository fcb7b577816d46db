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

// Supervisor is the recovery orchestrator the paper's system ring and
// disk exist to support: it runs a distributed workload under watch,
// and when an unrecoverable fault surfaces — a node crash, a link that
// stays dead past its retransmit budget, a memory parity error — it
// halts the machine, flushes in-flight traffic, restores the last
// consistent snapshot from the module disks, and replays. A workload
// that keeps its progress in checkpointed node memory resumes from the
// last completed phase rather than from scratch.
type Supervisor struct {
	M *Machine

	// MaxRestarts bounds how many rollbacks Run tolerates before
	// giving up.
	MaxRestarts int
	// DrainTime is how long the supervisor lets in-flight DMA and
	// router activity settle after halting, before flushing state.
	DrainTime sim.Duration

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

	// det, when a Healer is attached, is suspended around checkpoints
	// and recovery so the thread congestion they cause is not read as
	// silence.
	det *Detector

	// Counters for FaultReport.
	Crashes          int64
	Hangs            int64
	ParityFaults     int64
	Rollbacks        int64
	RestoreFallbacks int64

	// LastRecovery is the halt-to-replay time of the most recent
	// rollback (the experiment E17 recovery-time metric).
	LastRecovery sim.Duration
}

// NewSupervisor attaches a recovery supervisor to a machine, taking its
// policy from the machine's Spec.Recovery.
func NewSupervisor(m *Machine) *Supervisor {
	r := m.Spec.Recovery
	shards := m.Group.Shards()
	sv := &Supervisor{
		M:           m,
		MaxRestarts: r.MaxRestarts,
		DrainTime:   r.DrainTime,
		alarm:       sim.NewChan(m.K, "supervisor/alarm", 1024),
		okc:         sim.NewChan(m.K, "supervisor/ok", 4*m.Spec.Nodes),
		hung:        make([]bool, m.Spec.Nodes),
		up:          make([]*sim.XChan, shards),
		okUp:        make([]*sim.XChan, shards),
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

// FaultSink receives fault-injection notifications. The Supervisor is
// the standard sink; a nil sink means pure injection with no observer.
type FaultSink interface {
	// NodeCrashed reports that a node's board died. declared=false is a
	// SILENT crash: the machine is not alarmed, and only a heartbeat
	// failure detector can discover it.
	NodeCrashed(id int, declared bool)
	// NodeHung reports that a node's board wedged: it stops executing
	// (and so stops advancing its progress word) but its links stay up
	// and its heartbeat hardware keeps beating. Always silent.
	NodeHung(id int)
}

// NodeCrashed is the fault injector's notification that a node died.
// The node's application process is killed on the spot — its board
// stopped executing. A declared crash also alarms the supervisor; an
// undeclared one is left for the failure detector to find.
func (sv *Supervisor) NodeCrashed(id int, declared bool) {
	// On a partitioned machine this runs on the crashed node's shard;
	// two shards can take a crash in the same window, so the counter is
	// atomic (its final value is still deterministic — it counts events).
	atomic.AddInt64(&sv.Crashes, 1)
	sv.killBody(id)
	if declared {
		sv.postNode(id, &comm.CrashedError{Node: id})
	}
}

// NodeHung wedges a node: its application process stops dead, but the
// board keeps beating with a frozen progress word. Only a detector
// watching progress can tell this from slow code.
func (sv *Supervisor) NodeHung(id int) {
	atomic.AddInt64(&sv.Hangs, 1)
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
	if sv.det != nil {
		sv.M.Group.Global(p, func(sim.Time) { sv.det.Suspend() })
		defer sv.M.Group.Global(p, func(sim.Time) { sv.det.Resume() })
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

// raise sends a body error toward the shard-0 alarm channel.
func (sv *Supervisor) raise(bp *sim.Proc, shard int, err error) {
	if shard == 0 {
		sv.alarm.Send(bp, err)
		return
	}
	sv.up[shard].Send(bp, err)
}

// okDone sends a body-completed token toward the shard-0 ok channel.
func (sv *Supervisor) okDone(bp *sim.Proc, shard int, gen int64) {
	if shard == 0 {
		sv.okc.Send(bp, okTok{gen: gen})
		return
	}
	sv.okUp[shard].Send(bp, okTok{gen: gen})
}

// Run executes body once per node under supervision: it takes an
// initial checkpoint, spawns one process per node, and waits for all
// of them — or for a fault. A body that returns an error raises an
// alarm (so does the fault injector, for crashes); the supervisor then
// halts everything, rolls the machine back, and replays, up to
// MaxRestarts times. Bodies spawn on their nodes' own shards inside a
// Global section, completions and alarms travel the staged uplink
// edges, and the supervising process (which must run on shard 0, where
// the alarm channel lives) collects them.
func (sv *Supervisor) Run(p *sim.Proc, body func(bp *sim.Proc, id int) error) error {
	m := sv.M
	n := m.Spec.Nodes
	if err := sv.Checkpoint(p); err != nil {
		return err
	}
	for restart := 0; ; restart++ {
		sv.gen++
		gen := sv.gen
		sv.procs = make([]*sim.Proc, n)
		m.Group.Global(p, func(sim.Time) {
			for id := 0; id < n; id++ {
				nodeID := id
				shard := m.shardOf(id)
				sv.procs[id] = m.Group.Shard(shard).Go(fmt.Sprintf("supervisor/n%d", nodeID), func(bp *sim.Proc) {
					if err := body(bp, nodeID); err != nil {
						sv.noteFault(err)
						sv.raise(bp, shard, err)
						return
					}
					sv.okDone(bp, shard, gen)
				})
			}
		})
		var faultErr error
		for oks := 0; oks < n && faultErr == nil; {
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
		if restart >= sv.MaxRestarts {
			m.Group.Global(p, func(sim.Time) { sv.killBodies() })
			return fmt.Errorf("supervisor: giving up after %d restarts: %v", restart, faultErr)
		}
		if err := sv.recover(p); err != nil {
			return err
		}
	}
}

// recover is the recovery sequence: halt, drain, flush, repair,
// restore, and clear stale alarms. The halt/flush/repair steps mutate
// state owned by every shard, so each runs in a Global section; the
// drain wait between them is real simulated time, during which
// in-flight DMA transfers, router forwards and staged frames (bounded
// by the frame transfer time, microseconds against a 500 ms drain)
// settle, so nothing re-enters the queues behind our back.
func (sv *Supervisor) recover(p *sim.Proc) error {
	m := sv.M
	start := p.Now()
	m.Group.Global(p, func(sim.Time) {
		sv.killBodies()
		// A crash can land mid-checkpoint; abort the snapshot workers
		// too, or a stale collector would swallow the chunks of later
		// snapshots.
		for _, mod := range m.Modules {
			mod.AbortSnapshot()
		}
	})
	p.Wait(sv.DrainTime)
	m.Group.Global(p, func(sim.Time) {
		m.Net.Flush()
		for _, mod := range m.Modules {
			mod.FlushThread()
		}
		for _, nd := range m.Nodes {
			if !nd.Alive() {
				nd.Repair()
			}
		}
	})
	// Rewind to the newest snapshot; if its blocks rotted on disk,
	// fall back one generation.
	if err := sv.restoreLatest(p); err != nil {
		return err
	}
	sv.Rollbacks++
	sv.drainAlarms()
	sv.LastRecovery = p.Now().Sub(start)
	return nil
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
// and each timed event is scheduled on the kernel. sv may be nil when
// no supervision is wanted (pure injection experiments).
func (m *Machine) ArmFaults(plan *fault.Plan, sv *Supervisor) {
	// The typed-nil guard matters: wrapping a nil *Supervisor in the
	// interface would make sink != nil while every call panics.
	var sink FaultSink
	if sv != nil {
		sink = sv
	}
	m.ArmFaultsSink(plan, sink)
}

// ArmFaultsSink is ArmFaults with an arbitrary fault observer. Each
// timed event is scheduled on its target's owning shard.
func (m *Machine) ArmFaultsSink(plan *fault.Plan, sink FaultSink) {
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
		m.Group.Shard(shard).At(sim.Time(ev.At), func() { m.applyFault(ev, sink) })
	}
}

// applyFault executes one timed fault event.
func (m *Machine) applyFault(ev fault.Event, sink FaultSink) {
	switch ev.Kind {
	case fault.Crash:
		if ev.Node < len(m.Nodes) && m.Nodes[ev.Node].Alive() {
			m.Nodes[ev.Node].Crash()
			if sink != nil {
				sink.NodeCrashed(ev.Node, !ev.Silent)
			}
		}
	case fault.Hang:
		if ev.Node < len(m.Nodes) && m.Nodes[ev.Node].Alive() && sink != nil {
			sink.NodeHung(ev.Node)
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
