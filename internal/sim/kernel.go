package sim

import (
	"context"
	"fmt"
)

// Kernel is a deterministic discrete-event scheduler. Exactly one process
// goroutine runs at any instant; the kernel regains control whenever a
// process blocks, so process bodies may touch shared simulator state
// without locks.
//
// Internally the kernel keeps three event stores, chosen per schedule:
//
//   - the same-instant lane: a FIFO ring for events scheduled at the
//     current instant (unpark, Yield, spawn — the vast majority), which
//     bypass the priority queue entirely;
//   - a calendar wheel for near-future events (see calendarQueue);
//   - a binary-heap overflow for events beyond the wheel span.
//
// Future-time event records come from a free list, so steady-state
// simulation allocates nothing per event. Control transfers between
// processes are direct goroutine handoffs: the goroutine giving up the
// execution slot dispatches the next events itself and wakes the next
// process's goroutine with a single channel send, instead of bouncing
// every transfer through the kernel goroutine.
//
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now Time
	seq int64 // tie-break for future-time events

	// Same-instant fast lane: a power-of-two ring buffer, FIFO.
	lane     []laneSlot
	laneHead int
	laneLen  int

	q    calendarQueue // future-time events
	pool []*event      // free list of future-time event records

	limit        Time        // horizon of the active Run (< 0: none)
	limitExcl    bool        // window mode: the limit is exclusive (events at limit stay queued)
	stopped      bool        //
	pendingPanic interface{} // process-body panic awaiting re-delivery on the kernel goroutine

	// Cooperative cancellation (BindContext). The dispatch loop polls
	// cancelCh at the event boundary; once it fires, the kernel tears the
	// simulation down: every live process is killed and unwound, pending
	// kernel callbacks are dropped, and Run returns with Err() non-nil.
	// The same teardown runs when a simulation panics, so a failed run
	// never strands process goroutines.
	ctx         context.Context
	cancelCh    <-chan struct{}
	tearing     bool    // unwinding: drop callbacks, kill processes
	ctxCanceled bool    // teardown was caused by the bound context
	all         []*Proc // every spawned process, for teardown sweeps

	yielded chan struct{} // the hand-off chain signals here when the kernel goroutine must take over
	procs   int           // live (not yet finished) non-daemon processes
	running *Proc         // process currently executing, nil in kernel context

	// Execution metrics (see Stats) and the optional observer surface.
	events      int64
	spawned     int64
	finished    int64
	parks       int64
	unparks     int64
	maxQueue    int
	counters    map[string]int64
	counterKeys []string // cache of the counters' keys; sorted on demand
	keysDirty   bool     // counterKeys needs a re-sort (new key inserted)
	resources   []*Resource
	observer    Observer
}

// laneSlot is one same-instant event: a kernel callback or a process to
// resume. Slots live in the lane ring by value, so the fast path performs
// no per-event allocation at all.
type laneSlot struct {
	fn   func()
	proc *Proc
}

// NewKernel returns an empty simulation at time zero.
func NewKernel() *Kernel {
	return &Kernel{
		yielded:  make(chan struct{}),
		limit:    -1,
		counters: make(map[string]int64, 16),
	}
}

// NewKernelCtx returns an empty simulation bound to ctx: if ctx is
// canceled while Run is executing, the run is torn down cooperatively
// (see BindContext) and Err reports why.
func NewKernelCtx(ctx context.Context) *Kernel {
	k := NewKernel()
	k.BindContext(ctx)
	return k
}

// BindContext attaches a cancellation context to the kernel. The
// dispatch loop checks ctx.Done() at the event boundary (every
// cancelCheckMask+1 events, so the hot path pays one nil check); when it
// fires, every live process is killed and unwound, queued kernel
// callbacks are dropped, and Run returns promptly with the clock at the
// cancellation point. A nil ctx (or one that can never be canceled)
// costs nothing. Binding after Run has started is not supported.
func (k *Kernel) BindContext(ctx context.Context) {
	if ctx == nil {
		return
	}
	k.ctx = ctx
	k.cancelCh = ctx.Done()
}

// cancelCheckMask throttles the cancellation poll: the Done channel is
// selected once per mask+1 dispatched events, keeping the per-event cost
// of an armed context to a single nil check.
const cancelCheckMask = 255

// Canceled reports whether the run was torn down by the bound context.
func (k *Kernel) Canceled() bool { return k.ctxCanceled }

// Err returns nil for a normal run, or the bound context's error when
// the run was canceled mid-flight. Callers should check it immediately
// after Run: a canceled kernel has killed its processes, so any
// workload-level results are partial.
func (k *Kernel) Err() error {
	if !k.ctxCanceled {
		return nil
	}
	if k.ctx != nil {
		if err := k.ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

// beginTeardown flips the kernel into unwind mode: every live process is
// marked dead (blocked ones are woken so their parks panic killed), and
// from here on kernel callbacks are dropped at both the scheduling and
// dispatching edges so self-rescheduling timer chains die out and the
// queues drain.
func (k *Kernel) beginTeardown() {
	k.tearing = true
	for _, p := range k.all {
		if p == nil || p.done || p.dead {
			continue
		}
		p.dead = true
		if p.waiting != "" {
			p.unpark()
		}
	}
}

// Close releases a finished simulation: it kills every process still
// parked — daemons left blocked when the run drained, or work beyond a
// horizon — and dispatches until their goroutines have exited, so
// nothing keeps the kernel reachable. Call it after Run has returned
// and every result has been read; the kernel must not run again.
// Abnormal runs (context cancellation, a process panic, a deadlock
// panic) close themselves. Best-effort — a second panic during the
// unwind abandons the remaining cleanup rather than masking the
// original failure.
func (k *Kernel) Close() {
	defer func() { recover() }()
	k.stopped = false
	k.beginTeardown()
	for i := 0; i < 4 && (k.laneLen > 0 || k.q.size > 0); i++ {
		k.pendingPanic = nil
		k.dispatch(nil)
	}
}

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// pushLane appends a same-instant event to the FIFO ring.
func (k *Kernel) pushLane(fn func(), p *Proc) {
	if k.laneLen == len(k.lane) {
		k.growLane()
	}
	k.lane[(k.laneHead+k.laneLen)&(len(k.lane)-1)] = laneSlot{fn, p}
	k.laneLen++
	if n := k.laneLen + k.q.size; n > k.maxQueue {
		k.maxQueue = n
	}
}

func (k *Kernel) growLane() {
	n := len(k.lane) * 2
	if n == 0 {
		n = 64
	}
	fresh := make([]laneSlot, n)
	for i := 0; i < k.laneLen; i++ {
		fresh[i] = k.lane[(k.laneHead+i)&(len(k.lane)-1)]
	}
	k.lane = fresh
	k.laneHead = 0
}

func (k *Kernel) popLane() laneSlot {
	s := k.lane[k.laneHead]
	k.lane[k.laneHead] = laneSlot{} // release references
	k.laneHead = (k.laneHead + 1) & (len(k.lane) - 1)
	k.laneLen--
	return s
}

// newEvent takes a future-time event record off the free list. Refills
// come in slabs: records allocated together stay contiguous in memory,
// so the heap sift's pointer chases touch far fewer cache lines than
// they would over records interleaved with unrelated allocations.
func (k *Kernel) newEvent(t Time, fn func(), p *Proc) *event {
	k.seq++
	if len(k.pool) == 0 {
		slab := make([]event, eventSlabSize)
		for i := range slab {
			k.pool = append(k.pool, &slab[i])
		}
	}
	n := len(k.pool) - 1
	e := k.pool[n]
	k.pool = k.pool[:n]
	e.at, e.seq, e.fn, e.proc = t, k.seq, fn, p
	return e
}

// eventSlabSize is the free-list refill granularity.
const eventSlabSize = 256

// freeEvent returns an executed record to the free list.
func (k *Kernel) freeEvent(e *event) {
	e.fn, e.proc = nil, nil
	k.pool = append(k.pool, e)
}

// At schedules fn to run in kernel context at absolute time t. fn must not
// block; it may schedule further events and unblock processes. Scheduling
// in the past is an error.
func (k *Kernel) At(t Time, fn func()) {
	if k.tearing {
		return // unwinding: new kernel callbacks are dropped
	}
	if t == k.now {
		k.pushLane(fn, nil)
		return
	}
	k.atFuture(t, fn, nil)
}

// atFuture inserts a strictly-future event into the calendar queue.
func (k *Kernel) atFuture(t Time, fn func(), p *Proc) {
	if t < k.now {
		panicPast(t, k.now)
	}
	k.q.push(k.newEvent(t, fn, p))
	if n := k.laneLen + k.q.size; n > k.maxQueue {
		k.maxQueue = n
	}
}

// atProc schedules process p to resume at time t.
func (k *Kernel) atProc(t Time, p *Proc) {
	if t == k.now {
		k.pushLane(nil, p)
		return
	}
	k.atFuture(t, nil, p)
}

// panicPast and panicDeadlock keep their fmt calls out of the schedule
// and run hot paths so those stay small enough to inline.
//
//go:noinline
func panicPast(t, now Time) {
	panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", t, now))
}

//go:noinline
func panicDeadlock(now Time, procs int) {
	panic(fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked with no pending events", now, procs))
}

// After schedules fn to run in kernel context d from now.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.At(k.now.Add(d), fn)
}

// Stop makes Run return after the current event completes. Pending events
// remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue drains, the horizon passes, or Stop
// is called. A zero horizon means no limit. It returns the time of the
// last executed event (or the unchanged clock if nothing ran).
//
// Run panics if the queue drains while processes are still blocked: that
// is a deadlock in the simulated system.
func (k *Kernel) Run(horizon Duration) Time {
	// Abnormal exits (process panics, deadlock panics) tear the
	// simulation down before propagating, so a failed run never strands
	// blocked process goroutines — essential for long-lived hosts that
	// isolate a panicking job and keep serving.
	defer func() {
		if r := recover(); r != nil {
			k.Close()
			panic(r)
		}
	}()
	k.limit = -1
	k.limitExcl = false
	if horizon > 0 {
		k.limit = k.now.Add(horizon)
	}
	k.stopped = false
	k.dispatch(nil)
	if r := k.pendingPanic; r != nil {
		k.pendingPanic = nil
		panic(r)
	}
	if k.ctxCanceled {
		return k.now
	}
	if k.stopped {
		return k.now
	}
	if k.laneLen == 0 && k.q.size == 0 {
		if k.procs > 0 {
			panicDeadlock(k.now, k.procs)
		}
		return k.now
	}
	// Events remain beyond the horizon: advance the clock to it.
	k.now = k.limit
	return k.now
}

// dispatch executes ready events on the calling goroutine — the current
// holder of the execution slot. It is the single scheduling loop for both
// the kernel goroutine and parking processes:
//
//   - self == nil (kernel goroutine, from Run): runs until the simulation
//     must end (drain, horizon, Stop, pending panic), handing the slot to
//     process goroutines and waiting on k.yielded for it to come back.
//   - self != nil (a process giving up the slot): runs until the next
//     event resumes self — then returns true and the caller just keeps
//     executing, with no channel operation at all — or until the slot has
//     been handed to another goroutine, returning false so the caller
//     blocks on its resume channel. This direct handoff transfers control
//     between processes with a single channel send instead of two
//     rendezvous through the kernel goroutine.
//
// Ordering: queued future-time events that have become due at the current
// instant were scheduled before anything now in the lane, so they run
// first; the lane then drains FIFO. This reproduces exactly the global
// (time, sequence) order of a single priority queue.
func (k *Kernel) dispatch(self *Proc) bool {
	if self == nil {
		// Kernel goroutine: callback panics propagate to Run, whose
		// recover tears the simulation down before re-panicking.
		return k.dispatchLoop(nil)
	}
	// Process goroutine: a panic in a kernel callback must not unwind the
	// innocent process's stack, so the loop runs behind a panic fence.
	// The fence is one deferred recover per slot tenure — not per
	// callback — keeping the per-event path free of defer machinery.
	handed, ok := k.guardedLoop(self)
	if ok {
		return handed
	}
	// A callback panicked: it is re-armed in pendingPanic for delivery on
	// the kernel goroutine, which now takes the slot back.
	k.yielded <- struct{}{}
	return false
}

// guardedLoop runs the dispatch loop under a single recover. ok reports
// a normal return; on a callback panic the value is stashed in
// pendingPanic and ok is false.
func (k *Kernel) guardedLoop(self *Proc) (handed, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			k.pendingPanic = r
			ok = false
		}
	}()
	return k.dispatchLoop(self), true
}

func (k *Kernel) dispatchLoop(self *Proc) bool {
	for {
		if k.cancelCh != nil && !k.tearing && k.events&cancelCheckMask == 0 {
			select {
			case <-k.cancelCh:
				k.ctxCanceled = true
				k.beginTeardown()
			default:
			}
		}
		if k.stopped || k.pendingPanic != nil {
			return k.endDispatch(self)
		}
		var fn func()
		var next *Proc
		if k.laneLen > 0 {
			if e := k.q.dueNow(k.now); e != nil {
				fn, next = e.fn, e.proc
				k.q.popCurrent()
				k.freeEvent(e)
			} else {
				s := k.popLane()
				fn, next = s.fn, s.proc
			}
			if k.tearing && fn != nil {
				continue // unwinding: queued kernel callbacks are dropped
			}
		} else {
			e := k.q.peek()
			if e == nil {
				return k.endDispatch(self)
			}
			if e.proc != nil && e.proc.done {
				// A finished process's leftover timer (it was killed
				// while waiting). The wakeup no longer exists in the
				// simulated world, so it must not advance the clock —
				// otherwise every Kill of a sleeping process drags the
				// drain time out to its next scheduled tick.
				k.q.popCurrent()
				k.freeEvent(e)
				continue
			}
			if k.tearing && e.proc == nil {
				// Unwinding: a pending kernel callback. Dropped without
				// advancing the clock — only process wakeups still matter,
				// and only so their parks can deliver the kill.
				k.q.popCurrent()
				k.freeEvent(e)
				continue
			}
			if k.limit >= 0 && !k.tearing && (e.at > k.limit || (k.limitExcl && e.at >= k.limit)) {
				return k.endDispatch(self)
			}
			k.now = e.at
			fn, next = e.fn, e.proc
			k.q.popCurrent()
			k.freeEvent(e)
		}
		k.events++
		if k.observer != nil {
			k.observer.Event(k.now)
		}
		if next != nil {
			if next.done {
				continue // stale resume for a finished process
			}
			if next == self {
				return true
			}
			k.running = next
			next.resume <- struct{}{}
			if self != nil {
				return false
			}
			<-k.yielded
			continue
		}
		fn()
	}
}

// endDispatch ends a dispatch loop: a process goroutine wakes the kernel
// goroutine, which re-evaluates the stop conditions in Run.
func (k *Kernel) endDispatch(self *Proc) bool {
	if self != nil {
		k.yielded <- struct{}{}
	}
	return false
}

// nextEventTime reports the earliest pending instant, or ok=false when
// the queue is empty. The shard scheduler uses it to size conservative
// time windows.
func (k *Kernel) nextEventTime() (Time, bool) {
	if k.laneLen > 0 {
		return k.now, true
	}
	if e := k.q.peek(); e != nil {
		return e.at, true
	}
	return 0, false
}

// runWindow executes every pending event strictly before `before` and
// returns with the clock at the last executed event. Unlike Run it does
// not panic on a local drain with blocked processes — under a ShardGroup
// a shard's processes may legitimately be waiting for cross-shard
// traffic that only arrives at the next window barrier — and it returns
// a process-body panic value instead of re-panicking, so the shard
// scheduler can tear every shard down before propagating.
func (k *Kernel) runWindow(before Time) (r interface{}) {
	defer func() {
		if v := recover(); v != nil {
			// A panic escaping dispatch itself (bad schedule, corrupted
			// queue): surface it like a process panic so the group can
			// sequence the teardown.
			r = v
		}
	}()
	k.limit = before
	k.limitExcl = true
	k.stopped = false
	k.dispatch(nil)
	k.limit = -1
	k.limitExcl = false
	if p := k.pendingPanic; p != nil {
		k.pendingPanic = nil
		return p
	}
	return nil
}

// Idle reports whether no events are pending and no processes are live.
func (k *Kernel) Idle() bool { return k.laneLen == 0 && k.q.size == 0 && k.procs == 0 }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.laneLen + k.q.size }

// killed is the panic value used to unwind a killed process.
type killed struct{ name string }

// Proc is a simulated process: a goroutine whose execution is interleaved
// deterministically by the kernel. All blocking methods (Wait, channel and
// resource operations) must be called from the process's own goroutine.
type Proc struct {
	k       *Kernel
	name    string
	resume  chan struct{}
	daemon  bool // excluded from deadlock accounting
	dead    bool // killed; next park unwinds
	done    bool
	waiting string // what the process is blocked on, for deadlock reports
	onExit  []func()
	w       waiter // reusable wait-queue record (channel and resource blocks)
}

// Go spawns a process that begins executing fn at the current time.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// GoDaemon spawns a service process (router, device handler) that is
// allowed to remain blocked when the rest of the simulation drains: it
// does not count toward deadlock detection.
func (k *Kernel) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, true)
}

func (k *Kernel) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}), daemon: daemon}
	p.w.p = p
	if k.tearing {
		p.dead = true // born into an unwinding simulation: killed at first resume
	}
	if !daemon {
		k.procs++
	}
	k.spawned++
	// Track every process for teardown sweeps; compact finished entries
	// when the slice is about to grow so long-running simulations do not
	// accumulate dead pointers.
	if len(k.all) == cap(k.all) && len(k.all) >= 64 {
		live := k.all[:0]
		for _, q := range k.all {
			if !q.done {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(k.all); i++ {
			k.all[i] = nil
		}
		k.all = live
	}
	k.all = append(k.all, p)
	go func() {
		<-p.resume // wait for the kernel to hand us the start slot
		defer func() {
			r := recover()
			p.done = true
			k.finished++
			if !p.daemon {
				k.procs--
			}
			for i := len(p.onExit) - 1; i >= 0; i-- {
				p.onExit[i]()
			}
			k.running = nil
			if _, ok := r.(killed); r != nil && !ok {
				// A real bug in a process body: re-arm it on the
				// kernel goroutine so Run panics with it.
				k.pendingPanic = r
				k.yielded <- struct{}{}
				return
			}
			// Hand the slot back to the kernel goroutine (always parked
			// on yielded while any process runs). Exits are rare, so the
			// extra rendezvous is noise — whereas if the exiting
			// goroutine kept dispatching, every subsequent kernel
			// callback would pay the guardedFn panic fence until another
			// process took the slot.
			k.yielded <- struct{}{}
		}()
		if p.dead {
			panic(killed{p.name}) // killed before it ever ran
		}
		fn(p)
	}()
	k.atProc(k.now, p)
	return p
}

// park suspends the process until something calls unpark. It must only be
// called from the process goroutine while it holds the execution slot.
// Rather than returning the slot to the kernel goroutine, the parking
// process dispatches the next events itself; if the very next runnable
// event is its own resume, park returns without any channel traffic.
func (p *Proc) park(what string) {
	p.waiting = what
	p.k.parks++
	if p.k.observer != nil {
		p.k.observer.Park(p, what)
	}
	p.k.running = nil
	if !p.k.dispatch(p) {
		<-p.resume
	}
	p.waiting = ""
	p.k.running = p
	if p.dead {
		panic(killed{p.name})
	}
}

// unpark schedules the process to resume at the current time, on the
// same-instant lane. Kernel context only.
func (p *Proc) unpark() {
	p.k.unparks++
	if p.k.observer != nil {
		p.k.observer.Unpark(p)
	}
	p.k.pushLane(nil, p)
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process has finished.
func (p *Proc) Done() bool { return p.done }

// OnExit registers fn to run (in the process goroutine, LIFO) when the
// process finishes or is killed.
func (p *Proc) OnExit(fn func()) { p.onExit = append(p.onExit, fn) }

// Wait blocks the process for d of simulated time.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		panic("sim: negative wait")
	}
	if d == 0 {
		return
	}
	p.k.atFuture(p.k.now.Add(d), nil, p)
	p.park("wait")
}

// Yield cedes the execution slot until all other events at the current
// instant have run.
func (p *Proc) Yield() {
	p.k.pushLane(nil, p)
	p.park("yield")
}

// Kill terminates the process the next time it would block (or
// immediately, if it is currently blocked). Killing a finished process is
// a no-op. Kill may be called from kernel context or from another process.
func (p *Proc) Kill() {
	if p.done || p.dead {
		return
	}
	p.dead = true
	if p.waiting != "" {
		// Blocked somewhere: wake it so the park unwinds. The waiter
		// stays registered in whatever queue it was in; queues must
		// tolerate dead entries (they check p.dead).
		p.unpark()
	}
}

// Join blocks the calling process until q finishes.
func (p *Proc) Join(q *Proc) {
	if q.done {
		return
	}
	q.OnExit(func() {
		// Runs on q's goroutine as it exits; hand the slot back.
		p.unpark()
	})
	p.park("join " + q.name)
}
