// Package fault is the simulator's chaos engine: a deterministic,
// seed-driven plan of hardware faults injected into a running machine.
// The T Series system design — per-byte parity in the node store, the
// acknowledge bits of the serial link protocol, and the system
// ring/disk snapshot machinery — exists to absorb exactly these faults,
// and the recovery experiments (E17) measure how well the reproduction
// does.
//
// A Plan combines a steady-state bit-error rate applied to every link
// transfer with a list of timed events: node crashes, link outages,
// DRAM bit flips, and disk block corruption. All randomness comes from
// a splitmix64 stream seeded by Plan.Seed and consumed in deterministic
// kernel order, so identical seeds produce identical fault sequences
// and therefore identical simulation traces.
package fault

import (
	"math"

	"tseries/internal/sim"
)

// Kind enumerates the timed fault events a plan can schedule.
type Kind int

// The fault event kinds.
const (
	// Crash takes node Node out of service: its processes die and all
	// sixteen sublinks stop acknowledging.
	Crash Kind = iota
	// LinkDown severs the cube link of dimension Dim at node Node (both
	// directions stop acknowledging); LinkUp restores it.
	LinkDown
	LinkUp
	// FlipBit flips bit Bit of byte Addr in node Node's store without
	// updating parity — the classic transient DRAM fault.
	FlipBit
	// DiskCorrupt flips a bit inside stored block Block (by sorted-key
	// index) of module Module's system disk, leaving the recorded
	// checksum stale.
	DiskCorrupt
	// Hang wedges node Node's processor: execution stops (so its
	// progress word freezes) but links and heartbeat hardware stay
	// alive. Hangs are inherently silent — only a detector watching
	// published progress can find one.
	Hang
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case LinkDown:
		return "linkdown"
	case LinkUp:
		return "linkup"
	case FlipBit:
		return "flip"
	case DiskCorrupt:
		return "disk"
	case Hang:
		return "hang"
	}
	return "unknown"
}

// Event is one timed fault.
type Event struct {
	At   sim.Duration // offset from simulation start
	Kind Kind
	Node int  // Crash, LinkDown/Up, FlipBit: target node
	Dim  int  // LinkDown/Up: cube dimension of the severed link
	Addr int  // FlipBit: byte address
	Bit  uint // FlipBit: bit index 0..7
	Mod  int  // DiskCorrupt: target module
	Blk  int  // DiskCorrupt: block index into the sorted key list
	// Silent suppresses the injector's courtesy notification to the
	// supervisor: the fault happens, but nothing is told. Discovering
	// silent faults is the failure detector's whole job.
	Silent bool
}

// Plan is a complete fault scenario. The zero value injects nothing.
type Plan struct {
	// Seed drives every random decision the plan makes.
	Seed uint64
	// BER is the probability that any single payload bit of a link
	// transfer is inverted on the wire. The frame checksum catches
	// (almost) all such corruption and the link layer retransmits.
	BER float64
	// Events are the timed faults, applied in At order.
	Events []Event

	// FramesCorrupted counts transfers the plan actually damaged.
	FramesCorrupted int64
	// BitsFlipped counts individual wire bit errors injected.
	BitsFlipped int64

	rng     uint64
	started bool
}

// Crashes reports how many crash events the plan schedules.
func (pl *Plan) Crashes() int {
	n := 0
	for _, ev := range pl.Events {
		if ev.Kind == Crash {
			n++
		}
	}
	return n
}

// next returns the next value of the plan's splitmix64 stream.
func (pl *Plan) next() uint64 {
	if !pl.started {
		pl.rng = pl.Seed + 0x9e3779b97f4a7c15
		pl.started = true
	}
	pl.rng += 0x9e3779b97f4a7c15
	z := pl.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next01 returns a float in (0, 1].
func (pl *Plan) next01() float64 {
	return (float64(pl.next()>>11) + 1) / (1 << 53)
}

// NextUint returns a deterministic value from the plan's stream (used
// for auxiliary choices such as which disk block an event corrupts).
func (pl *Plan) NextUint() uint64 { return pl.next() }

// Corrupt implements the link layer's frame-corruption hook: given the
// frame of one transfer it returns the bit positions the wire inverts,
// ascending, or nil if the frame crosses clean. It never touches the
// frame. Error positions are drawn geometrically from the BER, so the
// per-frame corruption probability is 1-(1-BER)^(8·len) — long frames
// are proportionally more exposed, exactly like real serial links.
func (pl *Plan) Corrupt(name string, data []byte) []int {
	p := pl.BER
	if p <= 0 || len(data) == 0 {
		return nil
	}
	bits := len(data) * 8
	logq := math.Log1p(-p)
	var flips []int
	pos := -1
	for {
		skip := int(math.Log(pl.next01()) / logq)
		if skip < 0 || pos > bits-2-skip { // next error falls past the frame
			break
		}
		pos += skip + 1
		flips = append(flips, pos)
	}
	if flips != nil {
		pl.FramesCorrupted++
		pl.BitsFlipped += int64(len(flips))
	}
	return flips
}
