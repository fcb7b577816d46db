// Package link models the T Series inter-node communication hardware:
// four bidirectional serial links per control processor, each carrying
// every 8-bit byte with two synchronisation bits and one stop bit and
// requiring two acknowledge bits from the receiver — a maximum
// unidirectional payload bandwidth of just over 0.5 MB/s per link, over
// 4 MB/s for the four links together. Transfers run by DMA with a startup
// time of about 5 µs.
//
// Each physical link is multiplexed four ways, giving 16 bidirectional
// sublinks per node that divide the parent link's bandwidth. Sublinks are
// the unit of wiring: the machine builder cross-connects sublink pairs to
// realise the hypercube, the system-board thread, and external I/O.
package link

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tseries/internal/sim"
)

// topoEpoch counts wiring and outage transitions across every link in
// the process. Routing layers cache reachability tables against this
// value: as long as it is unchanged, no channel anywhere has gone up,
// down, or been rewired, so a cached table is still valid. It is a
// process-wide atomic rather than per-kernel state so that it can be
// bumped from SetDown without threading a kernel reference through
// every call site; a bump caused by an unrelated kernel merely forces a
// harmless table rebuild.
var topoEpoch atomic.Int64

// TopologyEpoch returns the current wiring/outage generation.
func TopologyEpoch() int64 { return topoEpoch.Load() }

// Protocol constants.
const (
	// BitsPerByte is the wire cost of one payload byte: 8 data + 2 sync
	// + 1 stop, plus the 2-bit acknowledge from the receiver.
	BitsPerByte = 8 + 2 + 1 + 2
	// SublinksPerLink is the multiplexing factor of each physical link.
	SublinksPerLink = 4
	// LinksPerNode is the number of physical links on a control processor.
	LinksPerNode = 4
	// SublinksPerNode is the total logical channel count (16).
	SublinksPerNode = LinksPerNode * SublinksPerLink
)

// BitTime is one serial bit period. The nominal signalling rate is
// 7.5 Mbit/s, so a byte costs 13 bit times ≈ 1.733 µs and the payload
// bandwidth is ≈ 0.577 MB/s — the paper's "over 0.5 MB/s per link".
const BitTime = 133333 * sim.Picosecond

// ByteTime is the wire time of one payload byte including the handshake.
const ByteTime = BitsPerByte * BitTime

// DMAStartup is the fixed cost of arming a link DMA transfer.
const DMAStartup = 5 * sim.Microsecond

// Lookahead is the guaranteed minimum latency of any inter-node
// transfer: even a zero-payload frame pays the DMA startup plus one
// byte of wire time. A conservative parallel scheduler (sim.ShardGroup)
// may safely use it as the cross-shard synchronization window for any
// partition whose shards interact only through links — no event sent
// through a link at time t can affect another node before t+Lookahead.
const Lookahead = DMAStartup + ByteTime

// Reliability constants. The wire protocol already carries two
// acknowledge bits per byte; on top of that each DMA frame carries a
// checksum, and the receiver's final acknowledge doubles as an
// ack/nack for the whole frame. A sender that sees a nack (checksum
// failure) or no acknowledge at all (dead wire or dead peer) retries
// with exponential backoff, and gives up with a DownError once
// MaxSendAttempts transmissions have failed.
const (
	// MaxSendAttempts bounds retransmission of one frame.
	MaxSendAttempts = 8
	// AckTimeout is how long a sender waits for the first acknowledge
	// bits before declaring an attempt lost — a small multiple of the
	// byte time, since acknowledges are interleaved per byte.
	AckTimeout = 64 * ByteTime
	// MaxBackoff caps the exponential retransmit backoff.
	MaxBackoff = 8 * sim.Millisecond
)

// RetryBackoff is the wait before retransmit attempt n+1 (n ≥ 1).
func RetryBackoff(attempt int) sim.Duration {
	d := AckTimeout << uint(attempt-1)
	if d > MaxBackoff {
		d = MaxBackoff
	}
	return d
}

// Injector lets a fault plan damage frames in flight. Corrupt is
// called once per transmission attempt with the frame as sent and
// returns the bit positions the wire inverts (bit i is bit i%8 of byte
// i/8), in ascending order with no repeats, or nil when the frame
// crosses clean. It must not modify the frame: the link decides the
// receiver's verdict from the positions alone and applies the flips
// itself, only to a frame it delivers.
type Injector interface {
	Corrupt(sublink string, frame []byte) []int
}

// DownError reports that a transfer was abandoned after exhausting its
// retransmit budget: the wire is cut or the peer has stopped
// acknowledging.
type DownError struct {
	Sublink  string
	Attempts int
}

func (e *DownError) Error() string {
	return fmt.Sprintf("link: %s down (no acknowledge after %d attempts)", e.Sublink, e.Attempts)
}

// IsDown reports whether err is (or wraps) a DownError.
func IsDown(err error) bool {
	var de *DownError
	return errors.As(err, &de)
}

// EffectiveBandwidth reports the steady-state unidirectional payload
// bandwidth of one link in bytes per second.
func EffectiveBandwidth() float64 {
	return 1 / ByteTime.Seconds()
}

// Link is one node's driver for a single physical serial link. Its
// outbound wire is a serial resource: the four outbound sublinks
// multiplexed onto it divide the available bandwidth. (The inbound
// direction is owned by the remote ends' outbound wires.)
type Link struct {
	Name     string
	k        *sim.Kernel
	wire     *sim.Resource
	subs     [SublinksPerLink]*Sublink
	injector Injector

	BytesSent int64
	Transfers int64

	// Fault accounting.
	Corrupted   int64 // frames damaged on the wire
	Undetected  int64 // damaged frames the checksum failed to catch
	Retransmits int64 // extra transmissions after a nack or timeout
	Timeouts    int64 // attempts lost to a dead wire or dead peer
	Drops       int64 // sends abandoned with a DownError
}

// SetInjector attaches a fault injector to every transfer on this
// link's outbound wire (nil detaches).
func (l *Link) SetInjector(inj Injector) { l.injector = inj }

// SetDown severs (true) or restores (false) all four sublinks at once —
// what a node crash or a physical cable fault does.
func (l *Link) SetDown(down bool) {
	changed := false
	for _, sub := range l.subs {
		if sub.down != down {
			sub.down = down
			changed = true
		}
	}
	if changed {
		topoEpoch.Add(1)
	}
}

// Sublink is one of the four multiplexed logical channels of a physical
// link. It is connected point-to-point to a peer sublink on another node.
type Sublink struct {
	parent *Link
	name   string
	peer   *Sublink
	staged *stagedPeer // cross-shard peer (see staged.go); nil when local
	inbox  *sim.Chan
	down   bool // outage: this end no longer drives or acknowledges
}

// NewLink creates a physical link and its four sublinks.
func NewLink(k *sim.Kernel, name string) *Link {
	l := &Link{Name: name, k: k, wire: sim.NewResource(k, name+"/wire", 1)}
	for i := range l.subs {
		in := fmt.Sprintf("%s/sub%d/in", name, i)
		sub := in[:len(in)-len("/in")] // the sublink name shares the inbox name's bytes
		l.subs[i] = &Sublink{parent: l, name: sub, inbox: sim.NewChan(k, in, 1024)}
	}
	return l
}

// Sublink returns logical channel i (0..3).
func (l *Link) Sublink(i int) *Sublink { return l.subs[i] }

// Wire exposes the outbound serial resource (for utilisation reports).
func (l *Link) Wire() *sim.Resource { return l.wire }

// Connect cross-wires two sublinks into a bidirectional channel. Both
// must be unconnected and distinct — a sublink cannot be wired to
// itself.
func Connect(a, b *Sublink) error {
	if err := checkUnpaired(a, b); err != nil {
		return err
	}
	a.peer, b.peer = b, a
	topoEpoch.Add(1)
	return nil
}

// checkUnpaired rejects a pairing of a sublink with itself or with an
// end that is already connected, locally or across shards.
func checkUnpaired(a, b *Sublink) error {
	if a == b {
		return fmt.Errorf("link: cannot connect %s to itself", a.name)
	}
	if a.Connected() || b.Connected() {
		return fmt.Errorf("link: sublink already connected (%s ↔ %s)", a.name, b.name)
	}
	return nil
}

// Rewire disconnects a and b from their current peers (if any) and
// cross-wires them to each other. This is the maintenance operation
// behind thread bypass: when a node on a module's system thread dies,
// the chain is re-cabled around it by rewiring its upstream neighbor's
// outbound sublink directly to its downstream neighbor's inbound one.
// The orphaned peers are left unconnected.
func Rewire(a, b *Sublink) error {
	if a == b {
		return fmt.Errorf("link: cannot rewire %s to itself", a.Name())
	}
	if a.peer != nil {
		a.peer.peer = nil
		a.peer = nil
	}
	if b.peer != nil {
		b.peer.peer = nil
		b.peer = nil
	}
	return Connect(a, b)
}

// Name identifies the sublink for tracing.
func (s *Sublink) Name() string { return s.name }

// Connected reports whether the sublink has a peer (local or staged).
func (s *Sublink) Connected() bool { return s.peer != nil || s.staged != nil }

// Peer returns the remote sublink, or nil.
func (s *Sublink) Peer() *Sublink { return s.peer }

// SetDown severs (true) or restores (false) this end of the channel.
// While either end is down the wire carries no acknowledges, so every
// send attempt on the pair times out.
func (s *Sublink) SetDown(down bool) {
	if s.down != down {
		s.down = down
		topoEpoch.Add(1)
	}
}

// Down reports whether this end has been severed.
func (s *Sublink) Down() bool { return s.down }

// Up reports whether the channel is usable end to end: connected and
// neither side severed. For a staged (cross-shard) pair the remote
// side's state is the barrier-synced mirror.
func (s *Sublink) Up() bool {
	if s.staged != nil {
		return !s.down && !s.staged.downMirror
	}
	return s.peer != nil && !s.down && !s.peer.down
}

// Send transfers data to the peer sublink, blocking the caller for the
// DMA startup plus the serial wire time. Sublinks sharing a physical
// link queue for the wire, dividing its bandwidth. The frame on the
// wire is a private copy of data, so the caller may reuse its buffer
// as soon as Send returns; otherwise Send is SendOwned.
func (s *Sublink) Send(p *sim.Proc, data []byte) error {
	return s.SendOwned(p, append([]byte(nil), data...))
}

// SendOwned transfers frame to the peer sublink, handing the frame
// itself over: the caller must not touch it again once the call
// starts, and the receiver owns the slice its Recv returns. On an
// error the frame was not delivered and comes back to the caller
// unchanged, so a router may offer it to another channel.
//
// Delivery is reliable against wire corruption: each frame carries a
// checksum, a corrupted frame is nacked by the receiver and
// retransmitted at once (the nack proves the peer is alive), and a
// frame that draws no acknowledge at all (severed wire, crashed peer)
// is retried with exponential backoff until MaxSendAttempts silent
// attempts, after which SendOwned returns a DownError. With no fault
// injector attached and both ends up, the timing and behaviour are
// identical to a bare transfer.
func (s *Sublink) SendOwned(p *sim.Proc, frame []byte) error {
	if !s.Connected() {
		return fmt.Errorf("link: %s is not connected", s.name)
	}
	if len(frame) == 0 {
		return fmt.Errorf("link: empty transfer on %s", s.name)
	}
	l := s.parent
	timeouts := 0
	for {
		delivered, acked := s.attempt(p, frame)
		if delivered {
			return nil
		}
		l.Retransmits++
		if acked {
			// Nack: the receiver rejected a damaged frame but is
			// plainly alive, so retransmit immediately and do not
			// charge the outage budget.
			continue
		}
		timeouts++
		if timeouts >= MaxSendAttempts {
			l.Drops++
			return &DownError{Sublink: s.name, Attempts: timeouts}
		}
		p.Wait(RetryBackoff(timeouts))
	}
}

// attempt performs one transmission of the frame. delivered means the
// frame reached the peer; acked distinguishes a nack (checksum reject
// from a live peer) from silence (dead wire).
func (s *Sublink) attempt(p *sim.Proc, frame []byte) (delivered, acked bool) {
	l := s.parent
	if !s.Up() {
		// The DMA arms and drives the first bytes, but no acknowledge
		// bits ever come back.
		l.wire.Use(p, DMAStartup+AckTimeout)
		l.Timeouts++
		return false, false
	}
	if s.staged != nil {
		return s.attemptStaged(p, frame), true
	}
	l.wire.Use(p, TransferTime(len(frame)))
	if !s.transmit(frame) {
		return false, true
	}
	s.peer.inbox.Send(p, frame)
	return true, true
}

// transmit is the wire crossing of one attempt, once the wire is held:
// it counts the transfer, asks the injector which bits the wire
// inverts, and decides the receiver's checksum verdict from those
// positions alone (flipsDetected). A detected flip set is a nack and
// transmit returns false without having touched the frame, which is
// still the pristine master for the retransmission. Damage the
// checksum misses is counted as Undetected and applied to the frame,
// which travels on to the receiver.
func (s *Sublink) transmit(frame []byte) bool {
	l := s.parent
	l.BytesSent += int64(len(frame))
	l.k.Count("link.bytes", int64(len(frame)))
	l.Transfers++
	if l.injector == nil {
		return true
	}
	flips := l.injector.Corrupt(s.name, frame)
	if len(flips) == 0 {
		return true
	}
	l.Corrupted++
	if flipsDetected(len(frame), flips) {
		return false
	}
	l.Undetected++
	flipBits(frame, flips)
	return true
}

// flipBits inverts the given bit positions of frame.
func flipBits(frame []byte, bits []int) {
	for _, b := range bits {
		frame[b/8] ^= 1 << uint(b%8)
	}
}

// Flush discards any messages queued in this sublink's inbox and
// reports how many were dropped. Recovery uses it to clear stale
// traffic before replaying from a checkpoint.
func (s *Sublink) Flush() int {
	n := 0
	for {
		if _, ok := s.inbox.TryRecv(); !ok {
			return n
		}
		n++
	}
}

// Recv blocks until a message arrives on this sublink and returns its
// payload.
func (s *Sublink) Recv(p *sim.Proc) []byte {
	return s.inbox.Recv(p).([]byte)
}

// TryRecv returns a payload if one is already queued.
func (s *Sublink) TryRecv() ([]byte, bool) {
	v, ok := s.inbox.TryRecv()
	if !ok {
		return nil, false
	}
	return v.([]byte), true
}

// Ready reports whether a Recv would not block.
func (s *Sublink) Ready() bool { return s.inbox.Ready() }

// Inbox exposes the underlying channel for ALT/select constructs.
func (s *Sublink) Inbox() *sim.Chan { return s.inbox }

// TransferTime predicts the wall time of an uncontended n-byte transfer.
func TransferTime(n int) sim.Duration {
	return DMAStartup + sim.Duration(n)*ByteTime
}
