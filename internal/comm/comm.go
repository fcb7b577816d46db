// Package comm is the message-passing library of the simulated T Series:
// typed point-to-point messages over the hypercube sublinks with
// store-and-forward e-cube routing, plus the standard hypercube
// collectives (broadcast, reduce, all-reduce, gather, scatter, barrier,
// all-to-all) built by recursive doubling and binomial trees — the
// communication patterns the paper's Figure 3 mappings exist to serve.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tseries/internal/cube"
	"tseries/internal/fparith"
	"tseries/internal/link"
	"tseries/internal/node"
	"tseries/internal/sim"
)

// header is the wire prefix of every message.
const headerBytes = 16

// HopLookahead reports the guaranteed minimum latency of one network
// hop: even an empty-payload message pays the DMA startup plus the wire
// time of its 16-byte header. A conservative parallel scheduler
// (sim.ShardGroup) partitioning the machine at node granularity may use
// it as the cross-shard synchronization window — no message injected at
// time t can reach a neighbouring node before t+HopLookahead.
func HopLookahead() sim.Duration { return link.TransferTime(headerBytes) }

// tagMask limits tags to 24 bits: the top byte of the tag word carries
// the hop counter that bounds detour routing.
const tagMask = 0xffffff

// Network is a set of nodes wired as a binary n-cube with a router
// process per node per dimension.
type Network struct {
	Dim   int
	Nodes []*node.Node
	eps   []*Endpoint

	// routes is the cached live-graph routing table (see route.go). It
	// is only consulted when some channel is down or some node crashed;
	// a healthy network routes pure e-cube without ever building it.
	routes *routeTable

	// view is the barrier-frozen topology view of a multi-shard build
	// (see shard.go); nil on a one-shard network, where every code path
	// below reads the live objects directly.
	view *netView
}

// Endpoint is one node's interface to the network.
type Endpoint struct {
	net *Network
	id  int
	nd  *node.Node

	mailboxes map[int]*sim.Chan // tag → delivery queue

	// Counters.
	Sent, Received, Forwarded int64
	BytesSent                 int64

	// Fault-aware routing counters.
	Detours    int64 // forwards over a non-e-cube (detour) dimension
	RouteDrops int64 // messages abandoned: hop budget spent or no usable channel
}

// CrashedError reports an operation addressed to a node that is out of
// service.
type CrashedError struct{ Node int }

func (e *CrashedError) Error() string {
	return fmt.Sprintf("comm: node %d has crashed", e.Node)
}

// IsCrashed reports whether err is (or wraps) a CrashedError.
func IsCrashed(err error) bool {
	var ce *CrashedError
	return errors.As(err, &ce)
}

// delivered is what lands in a mailbox.
type delivered struct {
	src     int
	payload []byte
}

// cubeSublink maps a cube dimension to a logical sublink, spreading the
// first dimensions across the four physical links so the three
// intramodule connections (dims 0..2) ride three separate wires — that
// is what makes the module's aggregate internode bandwidth exceed
// 12 MB/s. Logical sublinks 14 and 15 (link 3, sublinks 2 and 3) stay
// reserved for system communication, so a 14-cube exactly exhausts the
// remaining channels.
var cubeSublink = [cube.MaxDim]int{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 3, 7, 11}

// CubeSublink reports which logical sublink carries cube dimension d.
func CubeSublink(d int) int { return cubeSublink[d] }

// BuildCube wires the nodes' sublinks into a binary n-cube using the
// CubeSublink channel assignment, and starts a daemon router on every
// (node, dimension) pair. The nodes may be spread over the shards of g:
// shardOf maps a node id to its owning shard, and each node's kernel
// must be g.Shard(shardOf(id)). A serial network is the one-shard case
// (sim.OneShard). An edge whose endpoints share a shard is an ordinary
// link.Connect pair; a cross-shard edge becomes a staged pair
// (link.ConnectStaged) whose frames travel through XChan edges with the
// link-layer lookahead — the DMA startup plus one byte time that even
// the smallest frame pays, which is exactly the latency floor
// machine.PlanPartition derives.
func BuildCube(g *sim.ShardGroup, nodes []*node.Node, shardOf func(id int) int) (*Network, error) {
	dim, err := cube.DimOf(len(nodes))
	if err != nil {
		return nil, err
	}
	if dim > cube.MaxDim {
		return nil, fmt.Errorf("comm: %d-cube exceeds the %d-cube wiring maximum", dim, cube.MaxDim)
	}
	n := &Network{Dim: dim, Nodes: nodes}
	for id, nd := range nodes {
		if nd.ID != id {
			return nil, fmt.Errorf("comm: node %d has ID %d; nodes must be in cube order", id, nd.ID)
		}
		if nd.K != g.Shard(shardOf(id)) {
			return nil, fmt.Errorf("comm: node %d not built on its shard %d kernel", id, shardOf(id))
		}
		n.eps = append(n.eps, &Endpoint{
			net: n, id: id, nd: nd,
			mailboxes: map[int]*sim.Chan{},
		})
	}
	// Wire dimension d between id and id^(1<<d), once per edge. A
	// cross-shard edge stages each direction through an XChan that
	// delivers straight into the far sublink's inbox.
	for id := range nodes {
		for d := 0; d < dim; d++ {
			nb := cube.Neighbor(id, d)
			if nb < id {
				continue
			}
			a := nodes[id].Sublink(CubeSublink(d))
			b := nodes[nb].Sublink(CubeSublink(d))
			sa, sb := shardOf(id), shardOf(nb)
			if sa == sb {
				if err := link.Connect(a, b); err != nil {
					return nil, err
				}
				continue
			}
			ab := g.ConnectInto(sa, sb, fmt.Sprintf("xcube/n%d-n%d/d%d", id, nb, d), link.Lookahead, b.Inbox())
			ba := g.ConnectInto(sb, sa, fmt.Sprintf("xcube/n%d-n%d/d%d", nb, id, d), link.Lookahead, a.Inbox())
			if err := link.ConnectStaged(a, b, ab, ba); err != nil {
				return nil, err
			}
		}
	}
	// Routers: one daemon per (node, dimension), listening on that
	// dimension's sublink on the node's own kernel. Each router knows
	// its own dimension so the forwarder can avoid bouncing a message
	// straight back.
	for id := range nodes {
		ep := n.eps[id]
		for d := 0; d < dim; d++ {
			arriveDim := d
			sl := nodes[id].Sublink(CubeSublink(d))
			nodes[id].K.GoDaemon(fmt.Sprintf("router/n%d/d%d", id, d), func(p *sim.Proc) {
				for {
					raw := sl.Recv(p)
					ep.route(p, raw, arriveDim)
				}
			})
		}
	}
	// The barrier-frozen view exists only across shards. A one-shard
	// group runs a single unbounded window, so a frozen view would never
	// refresh; there every read stays live.
	if g.Shards() > 1 {
		n.view = &netView{alive: make([]bool, len(nodes))}
		n.SyncView()
	}
	return n, nil
}

// alive reports whether node id is in service. A partitioned network
// answers from the barrier-frozen view so no shard reads another
// shard's node state mid-window.
func (n *Network) alive(id int) bool {
	if n.view != nil {
		return n.view.alive[id]
	}
	return n.Nodes[id].Alive()
}

// anyCrashed reports whether any node is out of service. While false —
// the overwhelmingly common case — every code path is identical to the
// fault-free simulator.
func (n *Network) anyCrashed() bool {
	if n.view != nil {
		return n.view.anyDead
	}
	for _, nd := range n.Nodes {
		if !nd.Alive() {
			return true
		}
	}
	return false
}

// lowestAlive returns the smallest id of an in-service node, or -1.
func (n *Network) lowestAlive() int {
	if n.view != nil {
		return n.view.lowest
	}
	for id, nd := range n.Nodes {
		if nd.Alive() {
			return id
		}
	}
	return -1
}

// Flush discards all in-flight traffic: every sublink inbox and every
// endpoint mailbox. The recovery supervisor calls it after halting the
// machine so the replay starts from silence. It reports how many
// messages were dropped.
func (n *Network) Flush() int {
	total := 0
	for _, nd := range n.Nodes {
		for i := 0; i < link.SublinksPerNode; i++ {
			total += nd.Sublink(i).Flush()
		}
	}
	for _, ep := range n.eps {
		for _, mb := range ep.mailboxes {
			for {
				if _, ok := mb.TryRecv(); !ok {
					break
				}
				total++
			}
		}
	}
	return total
}

// Endpoint returns node id's network interface.
func (n *Network) Endpoint(id int) *Endpoint { return n.eps[id] }

// Size reports the number of nodes.
func (n *Network) Size() int { return len(n.eps) }

func (e *Endpoint) mailbox(tag int) *sim.Chan {
	mb, ok := e.mailboxes[tag]
	if !ok {
		mb = sim.NewChan(e.nd.K, fmt.Sprintf("n%d/mbox%d", e.id, tag), 1<<20)
		e.mailboxes[tag] = mb
	}
	return mb
}

// encode builds the wire form: src, dst, tag, len (uint32 LE) + payload.
// The top byte of the tag word (offset 11) is the hop counter.
func encode(src, dst, tag int, payload []byte) []byte {
	buf := make([]byte, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(src))
	binary.LittleEndian.PutUint32(buf[4:], uint32(dst))
	binary.LittleEndian.PutUint32(buf[8:], uint32(tag)&tagMask)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(payload)))
	copy(buf[headerBytes:], payload)
	return buf
}

func decode(raw []byte) (src, dst, tag int, payload []byte) {
	src = int(binary.LittleEndian.Uint32(raw[0:]))
	dst = int(binary.LittleEndian.Uint32(raw[4:]))
	tag = int(binary.LittleEndian.Uint32(raw[8:]) & tagMask)
	n := int(binary.LittleEndian.Uint32(raw[12:]))
	return src, dst, tag, raw[headerBytes : headerBytes+n]
}

func msgHops(raw []byte) int { return int(raw[11]) }
func bumpHops(raw []byte)    { raw[11]++ }

// maxHops bounds store-and-forward per message. E-cube needs at most
// Dim hops; detours around failed channels earn a generous multiple,
// after which the message is dropped rather than routed forever.
func (e *Endpoint) maxHops() int { return 3*e.net.Dim + 4 }

// route handles a message arriving at this node: deliver locally or
// forward toward dst (store-and-forward). arriveDim is the dimension
// the message came in on, or -1 when it was injected locally.
func (e *Endpoint) route(p *sim.Proc, raw []byte, arriveDim int) {
	src, dst, tag, payload := decode(raw)
	if dst == e.id {
		e.Received++
		e.mailbox(tag).Send(p, delivered{src: src, payload: payload})
		return
	}
	if msgHops(raw) >= e.maxHops() {
		e.RouteDrops++
		return
	}
	e.Forwarded++
	if e.forward(p, raw, dst, arriveDim) != nil {
		// A router daemon has nobody to report to; the drop shows up in
		// the counters and, eventually, as a timeout at the application.
		e.RouteDrops++
	}
}

// forward picks the outbound channel for a message to dst and sends it.
// On a healthy network the choice is pure e-cube: the lowest differing
// dimension, whose channel is up, so exactly one Send runs. With any
// channel down or node crashed, the choice comes from the live-graph
// next-hop table instead, which either lies on a shortest live path or
// proves the destination unreachable (a typed UnreachableError).
func (e *Endpoint) forward(p *sim.Proc, raw []byte, dst, arriveDim int) error {
	diff := e.id ^ dst
	bumpHops(raw)
	if v := e.net.view; v != nil {
		// Multi-shard build: route from the barrier-frozen view. The
		// candidates loop reads only this shard's own channel state
		// (staged peers through their mirrors), so it stays usable; the
		// live-graph table is frozen until the next barrier, so a
		// channel dying mid-window falls back to the candidates loop
		// instead of a rebuild.
		if v.healthy {
			return e.sendCandidates(p, raw, dst, arriveDim, diff)
		}
		d := v.nextHop[e.id][dst]
		if d < 0 {
			return &UnreachableError{Src: e.id, Dst: dst}
		}
		err := e.nd.Sublink(CubeSublink(int(d))).Send(p, raw)
		if err == nil {
			if diff&(1<<uint(d)) == 0 {
				e.Detours++
			}
			return nil
		}
		if !link.IsDown(err) {
			return err
		}
		if e.sendCandidates(p, raw, dst, arriveDim, diff) == nil {
			return nil
		}
		return &UnreachableError{Src: e.id, Dst: dst}
	}
	t := e.net.refreshRoutes()
	if t.healthy {
		return e.sendCandidates(p, raw, dst, arriveDim, diff)
	}
	// Damaged topology: follow the table, allowing one rebuild-and-retry
	// if a channel died between the table build and this hop.
	for attempt := 0; attempt < 2; attempt++ {
		d := t.nextHop[e.id][dst]
		if d < 0 {
			return &UnreachableError{Src: e.id, Dst: dst}
		}
		err := e.nd.Sublink(CubeSublink(int(d))).Send(p, raw)
		if err == nil {
			if diff&(1<<uint(d)) == 0 {
				e.Detours++
			}
			return nil
		}
		if !link.IsDown(err) {
			return err
		}
		t = e.net.refreshRoutes()
	}
	return &UnreachableError{Src: e.id, Dst: dst}
}

// sendCandidates walks the deterministic candidate order, sending on
// the first channel that takes the frame.
func (e *Endpoint) sendCandidates(p *sim.Proc, raw []byte, dst, arriveDim, diff int) error {
	var lastErr error
	for _, d := range e.candidates(dst, arriveDim) {
		err := e.nd.Sublink(CubeSublink(d)).Send(p, raw)
		if err == nil {
			if diff&(1<<uint(d)) == 0 {
				e.Detours++
			}
			return nil
		}
		if !link.IsDown(err) {
			return err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("comm: node %d has no usable channel toward %d", e.id, dst)
	}
	return lastErr
}

// candidates lists outbound dimensions to try, in deterministic
// preference order: e-cube dimensions (lowest differing first) that are
// up, excluding the arrival dimension; then the arrival dimension if it
// is a differing one (progress back the way we came still shortens the
// route); and last, up non-differing dimensions — true detours. The
// arrival dimension is never used as a detour: that would bounce the
// message straight back.
func (e *Endpoint) candidates(dst, arriveDim int) []int {
	diff := e.id ^ dst
	cand := make([]int, 0, e.net.Dim)
	for d := 0; d < e.net.Dim; d++ {
		if diff&(1<<uint(d)) != 0 && d != arriveDim && e.nd.Sublink(CubeSublink(d)).Up() {
			cand = append(cand, d)
		}
	}
	if arriveDim >= 0 && diff&(1<<uint(arriveDim)) != 0 && e.nd.Sublink(CubeSublink(arriveDim)).Up() {
		cand = append(cand, arriveDim)
	}
	for d := 0; d < e.net.Dim; d++ {
		if diff&(1<<uint(d)) == 0 && d != arriveDim && e.nd.Sublink(CubeSublink(d)).Up() {
			cand = append(cand, d)
		}
	}
	return cand
}

// Send delivers payload to node dst under tag. The caller blocks for the
// first-hop wire time; intermediate hops forward concurrently
// (store-and-forward, so an h-hop message costs about h times the wire
// time plus h DMA startups). Sending to a crashed node fails fast with
// a CrashedError; a send abandoned en route surfaces as a DownError or
// is dropped at an intermediate router (visible in RouteDrops).
func (e *Endpoint) Send(p *sim.Proc, dst, tag int, payload []byte) error {
	if dst == e.id {
		// Local delivery costs nothing on the wire.
		e.Sent++
		e.mailbox(tag).Send(p, delivered{src: e.id, payload: append([]byte(nil), payload...)})
		return nil
	}
	if dst < 0 || dst >= e.net.Size() {
		return fmt.Errorf("comm: destination %d outside %d-cube", dst, e.net.Dim)
	}
	if !e.net.alive(dst) {
		return &CrashedError{Node: dst}
	}
	e.Sent++
	e.BytesSent += int64(len(payload))
	return e.forward(p, encode(e.id, dst, tag, payload), dst, -1)
}

// Recv blocks until a message with the given tag arrives.
func (e *Endpoint) Recv(p *sim.Proc, tag int) (src int, payload []byte) {
	d := e.mailbox(tag).Recv(p).(delivered)
	return d.src, d.payload
}

// ID reports the endpoint's cube address.
func (e *Endpoint) ID() int { return e.id }

// Node returns the underlying processor node.
func (e *Endpoint) Node() *node.Node { return e.nd }

// Dim reports the cube dimension.
func (e *Endpoint) Dim() int { return e.net.Dim }

// Typed helpers: 64-bit vectors travel as little-endian bytes, eight per
// element — exactly what the link DMA would carry.

// SendF64 sends a vector of 64-bit elements.
func (e *Endpoint) SendF64(p *sim.Proc, dst, tag int, vals []fparith.F64) error {
	return e.Send(p, dst, tag, packF64(vals))
}

// RecvF64 receives a vector of 64-bit elements.
func (e *Endpoint) RecvF64(p *sim.Proc, tag int) (int, []fparith.F64) {
	src, payload := e.Recv(p, tag)
	return src, unpackF64(payload)
}

func packF64(vals []fparith.F64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return buf
}

func unpackF64(b []byte) []fparith.F64 {
	out := make([]fparith.F64, len(b)/8)
	for i := range out {
		out[i] = fparith.F64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
