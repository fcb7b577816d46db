package link

import "tseries/internal/sim"

// Cross-shard sublink wiring for the conservative parallel kernel
// (sim.ShardGroup). A staged pair behaves like a Connect'ed pair — same
// wire occupancy, same checksum/ack/retransmit protocol, same
// per-frame timing — but the two ends live on different shard kernels,
// so the frame itself travels through an XChan staged edge and the
// sender's view of the remote end's outage state is a mirror refreshed
// at window barriers rather than a direct read.
//
// Everything the send protocol decides — corruption, nack, undetected
// delivery — is already decided on the sender side (the injector runs
// at the transmitting link), so a staged attempt computes the outcome
// locally at wire-grant time and posts the delivery with the frame's
// own transfer time; the receiver sees an ordinary inbox message. The
// one genuinely remote input, "has the peer stopped acknowledging",
// comes from the barrier-synced mirror: a sender learns of a remote
// outage at most one window (= one lookahead) late, which is
// deterministic for a fixed partition and worker-invariant.
type stagedPeer struct {
	x      *sim.XChan // delivers frames into the remote end's inbox
	remote *Sublink   // the far end; touched only at barriers (mirror sync)

	// downMirror is the barrier-synced copy of remote.down. It is read
	// by the owning shard mid-window and written only at barriers, when
	// every shard is quiescent.
	downMirror bool
}

// Pair cross-wires sublink a, owned by shard sa of g, and sublink b,
// owned by shard sb, into a bidirectional channel. A one-shard pair is
// an ordinary Connect. A cross-shard pair is staged: each direction is
// a g.ConnectInto edge with the link lookahead (the floor every frame's
// real transfer time meets) delivering straight into the far end's
// inbox. The a→b edge is registered before b→a, because the barrier
// merge breaks delivery ties by edge registration order. Both sublinks
// must be unconnected.
func Pair(g *sim.ShardGroup, a, b *Sublink, sa, sb int) error {
	if sa == sb {
		return Connect(a, b)
	}
	if err := checkUnpaired(a, b); err != nil {
		return err
	}
	ab := g.ConnectInto(sa, sb, a.name+"->"+b.name, Lookahead, b.inbox)
	ba := g.ConnectInto(sb, sa, b.name+"->"+a.name, Lookahead, a.inbox)
	a.staged = &stagedPeer{x: ab, remote: b}
	b.staged = &stagedPeer{x: ba, remote: a}
	topoEpoch.Add(1)
	return nil
}

// SyncStagedMirror refreshes the sender-side outage mirror from the
// remote end's actual state. It must be called only when both shards
// are quiescent — at a ShardGroup window barrier — and returns whether
// the mirror changed (callers bump routing epochs on change).
func (s *Sublink) SyncStagedMirror() bool {
	if s.staged == nil {
		return false
	}
	d := s.staged.remote.down
	if d == s.staged.downMirror {
		return false
	}
	s.staged.downMirror = d
	return true
}

// attemptStaged is the cross-shard leg of attempt on a live channel:
// the same transmit step runs at wire-grant time, and a frame that
// passes is staged through the edge, arriving exactly one
// frame-transfer-time later — as it would on a local wire. It reports
// whether the frame was delivered (false: nacked).
func (s *Sublink) attemptStaged(p *sim.Proc, frame []byte) (delivered bool) {
	dur := TransferTime(len(frame))
	s.parent.wire.UseFunc(p, dur, func() {
		if delivered = s.transmit(frame); delivered {
			s.staged.x.PostDelayed(frame, dur)
		}
	})
	return delivered
}
