package machine

import (
	"errors"
	"fmt"

	"tseries/internal/comm"
	"tseries/internal/cube"
	"tseries/internal/memory"
	"tseries/internal/module"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// Healer is the self-healing part of supervision: Detector verdicts
// in, remapped machine out. Attached to a Supervisor, it turns the
// repair step of the supervisor's recovery into a remap walk — each
// module holds back its top spare slots as cold spares, and when a
// board is confirmed dead (by heartbeat silence or frozen progress, no
// fault plan courtesy required) the walk re-cables the module thread
// around the corpse and hands its checkpoint identity to a spare; the
// supervisor then restores the whole machine from the latest snapshot
// and replays. When a module's spares are exhausted it falls back to
// degraded operation: the dead board is repaired in place at the cost
// of a BoardSwapTime stall — the simulated field-engineer visit.
//
// Workloads run on IMAGES, not boards: image i is the checkpoint
// identity that booted on physical node i. Remapping moves an image to
// a different board; PhysOf tracks where each one lives now.
type Healer struct {
	M   *Machine
	SV  *Supervisor
	Det *Detector

	physOf []int // image id → physical node id, -1 for "never an image"

	// Remaps counts images moved onto spares; Degraded counts in-place
	// repairs after spare exhaustion.
	Remaps   int64
	Degraded int64
	// Events is a human-readable heal log.
	Events []string
}

// BoardSwapTime is the degraded-mode stall for repairing a dead board
// in place once spares are exhausted — the field-engineer visit the
// spare pool exists to avoid.
const BoardSwapTime = 120 * sim.Second

// bootRead is the service-path time to read one board's whole RAM.
const bootRead = sim.Duration(memory.NumRows) * sim.RowAccess

// NewHealer attaches self-healing to a supervisor: it reserves each
// module's top spares slots (0 ≤ spares < NodesPerModule, and always
// leaving one slot carrying an image) as cold spares for remapping —
// the paper's 12-of-14-cube idea in miniature, physical capacity held
// back so a confirmed-dead board's identity can move — and attaches a
// failure detector. It must run before the first snapshot (spares
// carry no checkpoint identity).
func NewHealer(m *Machine, sv *Supervisor, spares int) (*Healer, error) {
	if spares < 0 || spares >= module.NodesPerModule {
		return nil, fmt.Errorf("machine: %d spare nodes per module out of range 0..%d", spares, module.NodesPerModule-1)
	}
	h := &Healer{M: m, SV: sv, physOf: make([]int, len(m.Nodes))}
	for i := range h.physOf {
		h.physOf[i] = i
	}
	for _, mod := range m.Modules {
		k := spares
		if k >= len(mod.Nodes) {
			k = len(mod.Nodes) - 1
		}
		base := mod.Index * module.NodesPerModule
		for s := len(mod.Nodes) - k; s < len(mod.Nodes); s++ {
			if err := mod.SetSpare(s); err != nil {
				return nil, err
			}
			h.physOf[base+s] = -1
		}
	}
	h.Det = NewDetector(m, sv)
	sv.heal = h
	return h, nil
}

// Images returns the image ids in Gray-code ring order, skipping the
// spare positions — the logical ring a remapping-aware workload should
// iterate.
func (h *Healer) Images() []int {
	return cube.RingSkipping(h.M.Dim, func(i int) bool { return h.physOf[i] < 0 })
}

// PhysOf returns the physical node currently carrying image img, or -1
// if img is not an image (a spare position, or out of range).
func (h *Healer) PhysOf(img int) int {
	if img < 0 || img >= len(h.physOf) {
		return -1
	}
	return h.physOf[img]
}

// NodeOf returns the board currently carrying image img.
func (h *Healer) NodeOf(img int) *node.Node { return h.M.Nodes[h.physOf[img]] }

// EndpointOf returns the message endpoint of the board currently
// carrying image img.
func (h *Healer) EndpointOf(img int) *comm.Endpoint { return h.M.Net.Endpoint(h.physOf[img]) }

// remap is the healer's repair step of the supervisor's recovery, run
// after the halt and drain: flush, then bypass-and-remap (or degrade)
// every dead board. The flush and the walk touch state owned by other
// shards, so they run in one Global section with all shards quiescent;
// the timed waits of the walk (the boot-state service reads, the
// degraded-mode board swap) follow the section, since a Global body
// must not block.
func (h *Healer) remap(p *sim.Proc, cause error) error {
	sv, m := h.SV, h.M
	type reseed struct{ corpse, spare int }
	var reseeds []reseed
	degraded := false
	var healErr error
	m.Group.Global(p, func(at sim.Time) {
		// Each boot-state read below is paid before the next board is
		// walked, so a log entry carries the instant the walk reaches
		// it: the walk's start plus the reads queued so far.
		walked := func() sim.Time { return at.Add(sim.Duration(len(reseeds)) * bootRead) }
		sv.flush()
		// A confirmed hang is handled like a death: the board is wedged,
		// so take it out of service and let the remap path claim it.
		var hung *DetectedHang
		if errors.As(cause, &hung) {
			if nd := m.Nodes[hung.Node]; nd.Alive() {
				nd.Crash()
			}
			sv.hung[hung.Node] = false
		}
		// Remap every dead, still-cabled board.
		for phys, nd := range m.Nodes {
			if nd.Alive() {
				continue
			}
			mod := m.Modules[phys/module.NodesPerModule]
			base := mod.Index * module.NodesPerModule
			slot := phys - base
			if mod.Bypassed(slot) {
				continue // already out of the machine
			}
			img := mod.ImageOf(slot)
			if img < 0 {
				// A dead cold spare: nothing to save, just cut it out.
				if err := mod.BypassSlot(slot); err != nil {
					healErr = err
					return
				}
				h.note(walked(), "spare slot %d of module %d died; bypassed", slot, mod.Index)
				continue
			}
			spare := h.pickSpare(mod, walked())
			if spare < 0 {
				// Spares exhausted: repair in place, pay the engineer visit.
				nd.Repair()
				sv.hung[phys] = false
				degraded = true
				h.Degraded++
				m.K.Count("heal.degraded_count", 1)
				h.note(walked(), "node %d dead, no spare in module %d: degraded in-place repair", phys, mod.Index)
				continue
			}
			if err := mod.BypassSlot(slot); err != nil {
				healErr = err
				return
			}
			if err := mod.AdoptImage(spare, img); err != nil {
				healErr = err
				return
			}
			if sv.lastSnaps == nil {
				reseeds = append(reseeds, reseed{corpse: phys, spare: base + spare})
			}
			sv.hung[phys] = false
			h.physOf[base+img] = base + spare
			h.Remaps++
			m.K.Count("heal.remap_count", 1)
			h.note(walked(), "node %d dead: image %d remapped to spare slot %d of module %d", phys, base+img, spare, mod.Index)
		}
	})
	if healErr != nil {
		return healErr
	}
	if len(reseeds) > 0 {
		// The boot checkpoint never completed, so there is nothing on
		// disk to restore the images from. The dead boards' static RAM
		// still holds their untouched boot state: pay the service-path
		// read time per corpse, then seed the spares with the machine
		// quiescent.
		for range reseeds {
			p.Wait(bootRead)
		}
		m.Group.Global(p, func(sim.Time) {
			for _, r := range reseeds {
				m.Nodes[r.spare].Mem.PokeBytes(0, m.Nodes[r.corpse].Mem.PeekBytes(0, memory.Bytes))
			}
		})
	}
	if degraded {
		p.Wait(BoardSwapTime)
	}
	return nil
}

// pickSpare returns the lowest live spare slot of a module, bypassing
// any dead spares it walks over (logged at instant at); -1 when the
// pool is empty.
func (h *Healer) pickSpare(mod *module.Module, at sim.Time) int {
	base := mod.Index * module.NodesPerModule
	for _, s := range mod.Spares() {
		if h.M.Nodes[base+s].Alive() {
			return s
		}
		// Dead spare: cut it out so the thread stays whole.
		if err := mod.BypassSlot(s); err == nil {
			h.note(at, "dead spare slot %d of module %d bypassed", s, mod.Index)
		}
	}
	return -1
}

func (h *Healer) note(at sim.Time, format string, args ...interface{}) {
	h.Events = append(h.Events, fmt.Sprintf("[%v] %s", at, fmt.Sprintf(format, args...)))
}
