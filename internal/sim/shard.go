package sim

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// ShardGroup is a conservative parallel discrete-event scheduler: it
// partitions one simulation into shards — each an ordinary Kernel with
// its own calendar wheel and same-instant lane — and advances them in
// synchronized time windows bounded by the minimum cross-shard latency
// (the lookahead). Within a window every shard executes independently,
// optionally on parallel worker goroutines; events crossing shards are
// staged into per-edge outboxes and merged deterministically at the
// window barrier.
//
// The central contract is determinism by construction: the *logical*
// partition (how many shards, which processes live where, which XChan
// edges exist) fixes the result, and the *physical* worker count only
// fixes how fast the host gets there. A group run with SetWorkers(1)
// and SetWorkers(8) produces byte-identical results and byte-identical
// Stats, because
//
//   - each shard is itself a deterministic serial kernel;
//   - a cross-shard event staged at send time t arrives no earlier than
//     t + latency, and every edge latency is at least the group
//     lookahead L. A window runs events in [T, T+L) where T is the
//     earliest pending instant across shards, so arrivals (≥ T+L) are
//     always beyond the window being executed — no shard can ever see a
//     message from "the past";
//   - staged events are merged at the barrier in a fixed order:
//     ascending timestamp, ties broken by edge registration order and
//     then send order within the edge.
//
// Processes on different shards must not share mutable Go state: the
// XChan edges are the only sanctioned cross-shard interaction. The
// serial kernel's "exactly one process runs at any instant" guarantee
// holds per shard, not across the group.
//
// The zero value is not usable; call NewShardGroup.
type ShardGroup struct {
	shards  []*Kernel
	workers int
	edges   []*XChan

	// lookahead is the window width: the minimum latency over every
	// registered edge, or the explicit SetLookahead floor when no edge
	// carries less. Zero with no edges means windows are unbounded (the
	// shards cannot interact, so each may run to completion).
	lookahead Duration

	ctx      context.Context
	canceled bool

	// Deterministic run accounting (see Stats).
	windows    int64
	crossShard int64
	stall      []Duration // per-shard simulated barrier idle time
	staged     []int64    // per-shard cross-shard sends originated

	winObs WindowObserver

	// Pending Global calls, appended by shard processes mid-window and
	// drained by the coordinator at each barrier. globalMu guards the
	// slice (registrations race across worker goroutines); the seq
	// counters are per-shard so the drain order — ascending post time,
	// then shard, then per-shard sequence — is worker-invariant.
	globalMu      sync.Mutex
	globals       []globalCall
	globalSeq     []int64
	globalScratch []globalCall

	// Worker pool state, live only during Run.
	feed    chan windowJob
	results chan windowResult
	pooled  int // goroutines started

	// Scratch buffers reused across windows to keep the barrier
	// allocation-free in steady state.
	activeScratch  []int
	arrivalScratch []arrival
}

// windowJob asks a worker to run one shard up to (exclusive) wEnd.
type windowJob struct {
	shard int
	wEnd  Time
}

// windowResult is one shard's window outcome; panicked carries a
// process-body panic value to re-deliver after group teardown.
type windowResult struct {
	shard    int
	panicked interface{}
}

// WindowObserver receives barrier-time callbacks from a ShardGroup run.
// Both fire on the group's coordinating goroutine, never concurrently,
// and must not block. Install with SetWindowObserver.
type WindowObserver interface {
	// Window fires after each window barrier with the window's ordinal
	// (from 1) and its exclusive end instant.
	Window(n int64, end Time)
	// Staged fires once per cross-shard event as it is merged into its
	// destination shard, in the deterministic merge order.
	Staged(src, dst int, at Time)
}

// NewShardGroup returns a group of n empty shards at time zero.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one shard")
	}
	shards := make([]*Kernel, n)
	for i := range shards {
		shards[i] = NewKernel()
	}
	return newShardGroup(shards)
}

// OneShard wraps an existing kernel as a one-shard group: the kernel's
// clock, pending events and bound context carry over, and the caller
// may keep driving it directly with Kernel.Run. Partition-agnostic
// builders take a group, so this is how a serial simulation is handed
// to them. With no peer shard, Global runs inline and Run executes one
// unbounded window — exactly a Kernel.Run.
func OneShard(k *Kernel) *ShardGroup {
	g := newShardGroup([]*Kernel{k})
	g.ctx = k.ctx
	return g
}

func newShardGroup(shards []*Kernel) *ShardGroup {
	n := len(shards)
	return &ShardGroup{
		shards:    shards,
		workers:   1,
		stall:     make([]Duration, n),
		staged:    make([]int64, n),
		globalSeq: make([]int64, n),
	}
}

// NewShardGroupCtx returns a group bound to ctx: cancellation tears the
// whole simulation down cooperatively — every shard, every process —
// and Err reports why.
func NewShardGroupCtx(ctx context.Context, n int) *ShardGroup {
	g := NewShardGroup(n)
	g.BindContext(ctx)
	return g
}

// BindContext attaches a cancellation context to every shard. Each
// shard's dispatch loop polls it at its own event boundaries, and the
// group checks it at every window barrier. Binding after Run has
// started is not supported.
func (g *ShardGroup) BindContext(ctx context.Context) {
	if ctx == nil {
		return
	}
	g.ctx = ctx
	for _, k := range g.shards {
		k.BindContext(ctx)
	}
}

// Shard returns shard i's kernel. Build each shard's processes,
// channels, and resources against it exactly as for a serial kernel.
func (g *ShardGroup) Shard(i int) *Kernel { return g.shards[i] }

// Shards reports the logical shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// SetWorkers sets the physical parallelism: how many goroutines execute
// shard windows concurrently. It is clamped to [1, Shards()] and does
// not affect results — only wall-clock speed.
func (g *ShardGroup) SetWorkers(p int) {
	if p < 1 {
		p = 1
	}
	if p > len(g.shards) {
		p = len(g.shards)
	}
	g.workers = p
}

// Workers reports the configured physical parallelism.
func (g *ShardGroup) Workers() int { return g.workers }

// SetLookahead installs an explicit lookahead floor for groups whose
// minimum cross-shard latency is known to the caller (for example from
// the link DMA-startup constant) before any edge exists. The effective
// window width remains the minimum over this floor and every edge
// latency.
func (g *ShardGroup) SetLookahead(d Duration) {
	if d <= 0 {
		panic("sim: lookahead must be positive")
	}
	if g.lookahead == 0 || d < g.lookahead {
		g.lookahead = d
	}
}

// Lookahead reports the effective window width (0 = unbounded).
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// SetWindowObserver installs a barrier observer (nil removes it).
func (g *ShardGroup) SetWindowObserver(o WindowObserver) { g.winObs = o }

// Canceled reports whether the run was torn down by the bound context,
// including a shard kernel the caller ran directly (see OneShard).
func (g *ShardGroup) Canceled() bool {
	for _, k := range g.shards {
		if k.ctxCanceled {
			return true
		}
	}
	return g.canceled
}

// Err returns nil for a normal run, or the bound context's error when
// the run was canceled mid-flight.
func (g *ShardGroup) Err() error {
	if !g.Canceled() {
		return nil
	}
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

// Now reports the latest shard clock: the group's notion of current
// simulated time.
func (g *ShardGroup) Now() Time {
	var now Time
	for _, k := range g.shards {
		if k.now > now {
			now = k.now
		}
	}
	return now
}

// Connect registers a directed cross-shard edge from shard src to shard
// dst with the given minimum delivery latency, which must be positive:
// it is the physical transfer time that makes conservative windows
// possible (a link DMA startup plus wire time, a ring hop). capacity
// sizes the destination-side delivery queue exactly like NewChan.
// src == dst is allowed — the edge degenerates to a local delayed
// channel — so partition-agnostic component code can connect first and
// place later.
func (g *ShardGroup) Connect(src, dst int, name string, latency Duration, capacity int) *XChan {
	if src < 0 || src >= len(g.shards) || dst < 0 || dst >= len(g.shards) {
		panic(fmt.Sprintf("sim: xchan %s connects shard %d→%d outside group of %d", name, src, dst, len(g.shards)))
	}
	if latency <= 0 {
		panic("sim: xchan " + name + " needs a positive latency (it is the lookahead)")
	}
	x := &XChan{
		g: g, src: src, dst: dst, latency: latency,
		inner: NewChan(g.shards[dst], name, capacity),
	}
	g.edges = append(g.edges, x)
	if src != dst && (g.lookahead == 0 || latency < g.lookahead) {
		g.lookahead = latency
	}
	return x
}

// ConnectInto registers a cross-shard edge like Connect, but delivers
// into an existing destination-shard channel instead of creating one:
// staged values surface as ordinary receives on ch, so a component that
// already owns an inbox (a link sublink, a supervisor alarm queue) can
// be fed from another shard without changing its receive path. ch must
// belong to shard dst.
func (g *ShardGroup) ConnectInto(src, dst int, name string, latency Duration, ch *Chan) *XChan {
	if src < 0 || src >= len(g.shards) || dst < 0 || dst >= len(g.shards) {
		panic(fmt.Sprintf("sim: xchan %s connects shard %d→%d outside group of %d", name, src, dst, len(g.shards)))
	}
	if latency <= 0 {
		panic("sim: xchan " + name + " needs a positive latency (it is the lookahead)")
	}
	if ch == nil || ch.k != g.shards[dst] {
		panic("sim: xchan " + name + ": delivery channel must belong to the destination shard")
	}
	x := &XChan{g: g, src: src, dst: dst, latency: latency, inner: ch}
	g.edges = append(g.edges, x)
	if src != dst && (g.lookahead == 0 || latency < g.lookahead) {
		g.lookahead = latency
	}
	return x
}

// globalCall is one registered Global section awaiting barrier
// execution.
type globalCall struct {
	t     Time // post instant (the caller's clock at registration)
	shard int
	seq   int64
	fn    func(at Time)
	wake  *Chan // resumes the requester; nil when it resumes itself
}

// Global suspends p and runs fn at the next window barrier, with every
// shard quiescent: fn executes exactly once, on the group's
// coordinating goroutine, with safe read/write access to all shards'
// state (kernels, processes, channels — anything a serial simulation
// could touch). It is the escape hatch for rare global operations that
// a per-shard decomposition cannot express — a supervisor walking every
// module, a healer rewiring the topology — and it is deliberately
// instantaneous in simulated time: fn receives the barrier instant and
// may schedule timed work on any shard via Kernel.At/Go, but must not
// block.
//
// p resumes at the barrier instant, strictly after fn returned. Barrier
// instants are a pure function of the event timeline, so Global keeps
// the worker-invariance contract: results do not depend on SetWorkers.
// If p is killed before the barrier (for example by the fn of an
// earlier Global in the same batch), fn still runs — a global decision
// must not silently vanish with its requester.
//
// On a single-shard group fn runs inline at p's current instant: there
// are no peers to quiesce, and a barrier may never come.
func (g *ShardGroup) Global(p *Proc, fn func(at Time)) {
	shard := -1
	for i, k := range g.shards {
		if k == p.k {
			shard = i
			break
		}
	}
	if shard < 0 {
		panic("sim: Global from a process outside the group")
	}
	if len(g.shards) == 1 {
		fn(p.k.now)
		return
	}
	wake := NewChan(p.k, "global/wake", 1)
	g.globalMu.Lock()
	g.globalSeq[shard]++
	g.globals = append(g.globals, globalCall{
		t: p.k.now, shard: shard, seq: g.globalSeq[shard], fn: fn, wake: wake,
	})
	g.globalMu.Unlock()
	wake.Recv(p)
}

// runGlobals drains the pending Global calls at a barrier, running each
// fn at instant `at` in the deterministic order (post time, shard,
// per-shard sequence) and scheduling each requester's resume at `at`.
// fns may register further Globals (they run at the next barrier, not
// this one) and may kill requesters of later calls in the batch — the
// batch was fixed when the barrier began.
func (g *ShardGroup) runGlobals(at Time) {
	g.globalMu.Lock()
	batch := g.globals
	g.globals = g.globalScratch[:0]
	g.globalMu.Unlock()
	if len(batch) == 0 {
		g.globalScratch = batch
		return
	}
	sort.SliceStable(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.seq < b.seq
	})
	for _, c := range batch {
		c.fn(at)
		if c.wake != nil {
			wake := c.wake
			g.shards[c.shard].atFuture(at, func() { wake.push(struct{}{}) }, nil)
		}
	}
	for i := range batch {
		batch[i] = globalCall{}
	}
	g.globalScratch = batch[:0]
}

// pendingGlobals reports whether any Global call awaits a barrier.
func (g *ShardGroup) pendingGlobals() bool {
	g.globalMu.Lock()
	n := len(g.globals)
	g.globalMu.Unlock()
	return n > 0
}

// nextInstant scans the shards for the earliest pending event.
func (g *ShardGroup) nextInstant() (Time, bool) {
	var min Time
	any := false
	for _, k := range g.shards {
		if t, ok := k.nextEventTime(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// ctxFired reports whether the bound context has been canceled.
func (g *ShardGroup) ctxFired() bool {
	if g.ctx == nil {
		return false
	}
	select {
	case <-g.ctx.Done():
		return true
	default:
		return false
	}
}

// Close releases every shard (see Kernel.Close), one at a time on the
// calling goroutine, so no process goroutine outlives the run. Abnormal
// runs close the group themselves.
func (g *ShardGroup) Close() {
	for _, k := range g.shards {
		k.Close()
	}
}

// Run executes the group until every shard drains, the horizon passes,
// or the bound context fires. A zero horizon means no limit. It returns
// the group clock: the time of the latest executed event, or the
// horizon when events remain beyond it.
//
// Run panics if every queue drains while non-daemon processes are still
// blocked somewhere in the group — with no pending events and no staged
// cross-shard traffic, nothing can ever wake them: a deadlock in the
// simulated system.
func (g *ShardGroup) Run(horizon Duration) Time {
	limit := Time(-1)
	if horizon > 0 {
		limit = g.Now().Add(horizon)
	}
	if g.workers > 1 {
		g.startPool()
		defer g.stopPool()
	}
	for {
		if g.ctxFired() {
			g.canceled = true
			g.Close()
			return g.Now()
		}
		nextT, any := g.nextInstant()
		if !any {
			if g.pendingGlobals() {
				// Every queue is idle but Global sections await their
				// barrier: this IS the barrier. Run them at the group
				// clock; their wake events (and whatever the fns
				// schedule) continue the loop.
				g.advanceClocks(g.Now())
				g.runGlobals(g.Now())
				continue
			}
			procs := 0
			for _, k := range g.shards {
				procs += k.procs
			}
			if procs > 0 {
				// Unwind the blocked processes before reporting, as
				// Kernel.Run does, so no goroutine outlives the panic.
				g.Close()
				panicDeadlock(g.Now(), procs)
			}
			return g.Now()
		}
		if limit >= 0 && nextT > limit {
			// Events remain beyond the horizon: advance every clock to it.
			for _, k := range g.shards {
				if k.now < limit {
					k.now = limit
				}
			}
			return limit
		}
		// Window end: exclusive. With no cross-shard edges the shards
		// cannot interact, so the window is unbounded (or horizon-bound).
		wEnd := maxTime
		if g.lookahead > 0 {
			wEnd = nextT.Add(g.lookahead)
		}
		if limit >= 0 && wEnd > limit+1 {
			wEnd = limit + 1 // events at exactly the horizon still run
		}
		if !g.runShardWindows(wEnd) {
			return g.Now() // canceled or panicked (panic re-raised there)
		}
		g.windows++
		g.mergeStaged()
		if g.pendingGlobals() {
			at := wEnd
			if at == maxTime {
				at = g.Now()
			}
			// A Global fn may spawn processes on any shard, and a spawn
			// begins at its kernel's own clock. An idle shard's clock
			// trails the group (it only advances by executing events), so
			// bring every shard to the barrier instant first — otherwise
			// work spawned there would run in the group's past and its
			// staged sends would break the lookahead bound. Safe because
			// every event before the window end has already executed.
			g.advanceClocks(at)
			g.runGlobals(at)
		}
		if g.winObs != nil {
			g.winObs.Window(g.windows, wEnd)
		}
	}
}

// maxTime is the unbounded window end.
const maxTime = Time(1<<63 - 1)

// advanceClocks brings every shard clock up to t (never backward).
func (g *ShardGroup) advanceClocks(t Time) {
	for _, k := range g.shards {
		if k.now < t {
			k.now = t
		}
	}
}

// runShardWindows executes one window on every shard that has work due
// before wEnd, in parallel when workers allow, and accounts barrier
// stall. It returns false when the run must stop (context cancellation
// observed by a shard); a process panic is re-raised after a full
// teardown so no goroutine is stranded.
func (g *ShardGroup) runShardWindows(wEnd Time) bool {
	active := g.activeShards(wEnd)
	var panicked interface{}
	panicShard := -1
	if g.workers > 1 && len(active) > 1 {
		for _, i := range active {
			g.feed <- windowJob{shard: i, wEnd: wEnd}
		}
		for range active {
			r := <-g.results
			if r.panicked != nil && (panicShard < 0 || r.shard < panicShard) {
				panicked, panicShard = r.panicked, r.shard
			}
		}
	} else {
		for _, i := range active {
			if r := g.shards[i].runWindow(wEnd); r != nil && panicShard < 0 {
				panicked, panicShard = r, i
			}
		}
	}
	if panicked != nil {
		g.Close()
		panic(panicked)
	}
	for _, i := range active {
		k := g.shards[i]
		if k.ctxCanceled {
			g.canceled = true
			g.Close()
			return false
		}
		if wEnd != maxTime && k.now < wEnd {
			g.stall[i] += Duration(wEnd.Sub(k.now))
		}
	}
	return true
}

// activeShards lists the shards with an event due before wEnd, in shard
// order. The scratch slice is reused across windows.
func (g *ShardGroup) activeShards(wEnd Time) []int {
	active := g.activeScratch[:0]
	for i, k := range g.shards {
		if t, ok := k.nextEventTime(); ok && t < wEnd {
			active = append(active, i)
		}
	}
	g.activeScratch = active
	return active
}

// startPool launches the window worker goroutines. Results are buffered
// to the shard count so a worker never blocks publishing, which keeps
// the feed loop deadlock-free regardless of scheduling order.
func (g *ShardGroup) startPool() {
	feed := make(chan windowJob, len(g.shards))
	results := make(chan windowResult, len(g.shards))
	g.feed, g.results = feed, results
	g.pooled = g.workers
	shards := g.shards
	for w := 0; w < g.workers; w++ {
		go func() {
			for job := range feed {
				results <- windowResult{shard: job.shard, panicked: shards[job.shard].runWindow(job.wEnd)}
			}
		}()
	}
}

func (g *ShardGroup) stopPool() {
	if g.feed != nil {
		close(g.feed)
		g.feed = nil
		g.results = nil
		g.pooled = 0
	}
}

// mergeStaged drains every edge outbox into its destination shard in
// the deterministic merge order: ascending delivery timestamp, ties
// broken by edge registration order and then send order within the
// edge (the sort is stable and outboxes are visited in registration
// order). Arrival timestamps are provably at or beyond every window the
// shards have executed, so insertion never schedules into a shard's
// past.
func (g *ShardGroup) mergeStaged() {
	arrivals := g.arrivalScratch[:0]
	for _, x := range g.edges {
		for _, m := range x.staged {
			arrivals = append(arrivals, arrival{x: x, at: m.at, v: m.v})
		}
		g.staged[x.src] += int64(len(x.staged))
		g.crossShard += int64(len(x.staged))
		for i := range x.staged {
			x.staged[i].v = nil // release references
		}
		x.staged = x.staged[:0]
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
	for _, a := range arrivals {
		x, v := a.x, a.v
		dst := g.shards[x.dst]
		dst.atFuture(a.at, func() { x.inner.push(v) }, nil)
		if g.winObs != nil {
			g.winObs.Staged(x.src, x.dst, a.at)
		}
	}
	for i := range arrivals {
		arrivals[i].v = nil
	}
	g.arrivalScratch = arrivals[:0]
}

// arrival is one staged cross-shard event awaiting barrier merge.
type arrival struct {
	x  *XChan
	at Time
	v  interface{}
}

// Stats snapshots the whole group: sums of the per-shard execution
// counters, the union of named counters, every shard's resources in
// shard order, and the per-shard summaries. MaxQueue aggregates as the
// maximum over shards — each shard's high-water mark is deterministic,
// and no single queue ever held more. Every field is independent of the
// worker count.
func (g *ShardGroup) Stats() Stats {
	agg := Stats{
		Now:          g.Now(),
		Windows:      g.windows,
		CrossShard:   g.crossShard,
		BarrierStall: g.totalStall(),
	}
	counters := map[string]int64{}
	for i, k := range g.shards {
		s := k.Stats()
		agg.Events += s.Events
		agg.Spawned += s.Spawned
		agg.Finished += s.Finished
		agg.Parks += s.Parks
		agg.Unparks += s.Unparks
		agg.LiveProcs += s.LiveProcs
		if s.MaxQueue > agg.MaxQueue {
			agg.MaxQueue = s.MaxQueue
		}
		for name, v := range s.Counters {
			counters[name] += v
		}
		agg.Resources = append(agg.Resources, s.Resources...)
		agg.Shards = append(agg.Shards, ShardStats{
			Shard:    i,
			Events:   s.Events,
			Spawned:  s.Spawned,
			Parks:    s.Parks,
			Unparks:  s.Unparks,
			MaxQueue: s.MaxQueue,
			Staged:   g.staged[i],
			Stall:    g.stall[i],
		})
	}
	if len(counters) > 0 {
		agg.Counters = counters
		keys := make([]string, 0, len(counters))
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		agg.keys = keys
	}
	return agg
}

// totalStall sums the per-shard barrier idle time.
func (g *ShardGroup) totalStall() Duration {
	var total Duration
	for _, d := range g.stall {
		total += d
	}
	return total
}

// XChan is a directed cross-shard message channel: the only sanctioned
// way for processes on different shards to interact. A send stages the
// value with delivery timestamp now + latency into the edge's outbox;
// the group merges outboxes at each window barrier and the value
// becomes receivable on the destination shard at its delivery instant.
// Sends never block (the latency models the transfer; senders that must
// pace themselves wait explicitly), receives block like an ordinary
// channel receive.
type XChan struct {
	g        *ShardGroup
	src, dst int
	latency  Duration
	inner    *Chan
	staged   []stagedMsg // outbox: written by src shard in-window, drained at the barrier
	sent     int64
}

// stagedMsg is one staged cross-shard event.
type stagedMsg struct {
	at Time
	v  interface{}
}

// Name returns the channel's name.
func (x *XChan) Name() string { return x.inner.Name() }

// Latency reports the edge's modelled transfer time.
func (x *XChan) Latency() Duration { return x.latency }

// Sent reports how many values have been sent on this edge.
func (x *XChan) Sent() int64 { return x.sent }

// Src and Dst report the edge's endpoints.
func (x *XChan) Src() int { return x.src }
func (x *XChan) Dst() int { return x.dst }

// Send stages v for delivery latency from now. p must be a process of
// the source shard; sending from any other shard would race and is a
// programming error.
func (x *XChan) Send(p *Proc, v interface{}) {
	if p.k != x.g.shards[x.src] {
		panic(fmt.Sprintf("sim: xchan %s: send from a process of the wrong shard", x.Name()))
	}
	x.post(v)
}

// Post stages v from source-shard kernel context (an At callback or a
// router hook running on the source shard).
func (x *XChan) Post(v interface{}) { x.postAfter(v, x.latency) }

// PostDelayed stages v with an explicit transfer time d ≥ the edge
// latency, for senders whose modelled delivery time varies with the
// payload (a link frame's DMA startup plus per-byte wire time). The
// registered latency remains the conservative floor that bounds the
// group's windows; d only sets this value's arrival instant.
func (x *XChan) PostDelayed(v interface{}, d Duration) {
	if d < x.latency {
		panic(fmt.Sprintf("sim: xchan %s: delay %v below the edge latency %v breaks the lookahead bound", x.Name(), d, x.latency))
	}
	x.postAfter(v, d)
}

func (x *XChan) post(v interface{}) { x.postAfter(v, x.latency) }

func (x *XChan) postAfter(v interface{}, d Duration) {
	src := x.g.shards[x.src]
	at := src.now.Add(d)
	x.sent++
	if x.src == x.dst {
		// Degenerate local edge: no staging needed, but identical timing.
		x.inner.k.At(at, func() { x.inner.push(v) })
		return
	}
	x.staged = append(x.staged, stagedMsg{at: at, v: v})
}

// Recv blocks the destination-shard process p until a value arrives.
func (x *XChan) Recv(p *Proc) interface{} { return x.inner.Recv(p) }

// TryRecv returns a delivered value if one is already queued.
func (x *XChan) TryRecv() (interface{}, bool) { return x.inner.TryRecv() }

// Ready reports whether a Recv would not block.
func (x *XChan) Ready() bool { return x.inner.Ready() }

// Inbox exposes the destination-side channel for Select constructs.
func (x *XChan) Inbox() *Chan { return x.inner }
