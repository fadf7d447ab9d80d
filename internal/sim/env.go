// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. Simulated threads ("procs") are written as ordinary
// Go functions; they run on real goroutines but the engine enforces a
// strict one-at-a-time handoff between the kernel loop and the active
// proc, so a simulation is a pure function of its inputs and seed.
//
// The engine itself knows nothing about CPUs. Compute requests are
// delegated to an Executor — the OS-scheduler model in internal/sched —
// which decides where and when the requested cycles retire. Everything
// else (sleeping, locks, condition variables, barriers, queues) is
// handled inside this package.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"asmp/internal/simtime"
	"asmp/internal/xrand"
)

// CPUSet is a bitmask of core IDs a proc may run on. The zero value means
// "any core".
type CPUSet uint64

// Set returns s with core id added.
func (s CPUSet) Set(id int) CPUSet { return s | 1<<uint(id) }

// Has reports whether core id is in the set. An empty set contains every
// core.
func (s CPUSet) Has(id int) bool { return s == 0 || s&(1<<uint(id)) != 0 }

// Count returns the number of explicitly set cores (0 for "any").
func (s CPUSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Single returns a set containing only core id.
func Single(id int) CPUSet { return CPUSet(1) << uint(id) }

// Executor models CPU execution for the engine. Implementations must be
// single-threaded (they are only invoked from the kernel context or the
// active proc's context, never concurrently) and must invoke
// p.FinishCompute from a scheduled event, never synchronously from
// Compute. FinishCompute is a tail call: it records the handoff to p,
// which runs only once the event's handler returns. Work that must
// follow p's turn belongs in an Env.AfterTurn continuation, not after
// the FinishCompute call.
type Executor interface {
	// Compute retires cycles of work for p, honouring p's affinity, and
	// calls p.FinishCompute at the simulated time the work completes.
	// memSeconds is additional memory-stall time that occupies the core
	// for a fixed wall-clock duration regardless of the core's clock
	// duty cycle — the paper's stop-clock mechanism slows the processor
	// but not the memory system.
	Compute(p *Proc, cycles, memSeconds float64)
	// Cancel aborts an in-flight Compute for p; FinishCompute must not
	// be called afterwards. Cancelling a proc with no in-flight compute
	// is a no-op.
	Cancel(p *Proc)
	// ProcExit tells the executor p has exited and will never compute
	// again, so any per-proc state can be released.
	ProcExit(p *Proc)
}

// Env is a simulation environment: the event queue, the proc table and
// the executor. Create one with NewEnv, attach an executor, spawn procs
// with Go, and drive it with Run or RunUntil.
type Env struct {
	queue simtime.Queue
	rand  *xrand.Rand
	exec  Executor

	nextPID int
	// live holds every spawned, not-yet-retired proc. Order is
	// unspecified (retirement swap-removes); consumers that need
	// determinism sort by PID. A slice beats a map here because spawn
	// and exit are hot paths and membership is tracked by Proc.liveIdx.
	live []*Proc
	// running is the proc whose body holds control; nil while kernel
	// code runs, on whichever goroutine that is. next is the handoff the
	// current event recorded (resume), and cont the continuation to run
	// once that proc yields again (AfterTurn).
	running  *Proc
	next     *Proc
	cont     turnCont
	panicVal any
	closed   bool

	limits   Limits
	cancel   <-chan struct{}
	deadline simtime.Time // where the running loop stops
	events   int
	tripped  error

	// driverq hands control back to the goroutine blocked in drive when
	// the loop ends on another goroutine. switches counts every handoff
	// of control between goroutines (pass).
	driverq  chan struct{}
	switches int

	// procSlab and randSlab batch the per-spawn allocations: spawning N
	// procs costs N/32 backing allocations for the Proc structs and
	// their random streams instead of 2N. Slots are handed out once and
	// never recycled, so proc identity is unaffected.
	procSlab []Proc
	randSlab []xrand.Rand

	// workerq feeds spawned procs to pooled worker goroutines, and
	// idleWorkers counts workers parked on or bound for workerq. A worker that
	// finishes one proc's body loops back for the next spawn, so
	// churn-heavy workloads pay goroutine creation (and the go
	// statement's closure) only at peak concurrency, not per proc. Only
	// the kernel context touches idleWorkers.
	workerq     chan *Proc
	idleWorkers int
}

// NewEnv returns an environment whose randomness derives entirely from
// seed.
func NewEnv(seed uint64) *Env {
	return &Env{
		rand:    xrand.New(seed),
		workerq: make(chan *Proc, 1),
		driverq: make(chan struct{}),
	}
}

// SetExecutor installs the CPU model. It must be called before any proc
// issues a Compute.
func (e *Env) SetExecutor(x Executor) { e.exec = x }

// Executor returns the installed CPU model (nil if none).
func (e *Env) Executor() Executor { return e.exec }

// Now returns the current simulated time.
func (e *Env) Now() simtime.Time { return e.queue.Now() }

// Rand returns the environment's root random stream. Prefer per-proc
// streams (Proc.Rand) inside workload code.
func (e *Env) Rand() *xrand.Rand { return e.rand }

// After schedules fn to run in kernel context d from now.
//
//asmp:allow refdiscipline closure events are never recycled through the free list (simtime recycles only payload events), so the bare pointer stays valid for the simulation's lifetime
func (e *Env) After(d simtime.Duration, fn func()) *simtime.Event {
	return e.queue.After(d, fn)
}

// At schedules fn to run in kernel context at time t.
//
//asmp:allow refdiscipline closure events are never recycled through the free list, so the bare pointer stays valid for the simulation's lifetime
func (e *Env) At(t simtime.Time, fn func()) *simtime.Event {
	return e.queue.Schedule(t, fn)
}

// AfterCall schedules h.HandleEvent(kind, arg) to run in kernel context
// d from now, through the queue's allocation-free payload path. The
// returned Ref is generation-checked (see simtime.ScheduleCall), so a
// handle held past firing is inert rather than dangling.
func (e *Env) AfterCall(d simtime.Duration, h simtime.Handler, kind int, arg any) simtime.Ref {
	return e.queue.AfterCall(d, h, kind, arg)
}

// AtCall schedules h.HandleEvent(kind, arg) to run in kernel context at
// time t, with AfterCall's allocation-free contract.
func (e *Env) AtCall(t simtime.Time, h simtime.Handler, kind int, arg any) simtime.Ref {
	return e.queue.ScheduleCall(t, h, kind, arg)
}

// CancelEvent cancels a pending event scheduled with After or At.
func (e *Env) CancelEvent(ev *simtime.Event) { e.queue.Cancel(ev) }

// CancelCall cancels a pending payload event scheduled with AfterCall or
// AtCall. A zero or stale Ref is a no-op.
func (e *Env) CancelCall(r simtime.Ref) { e.queue.CancelRef(r) }

// NumLive returns the number of procs that have been spawned and have not
// yet exited.
func (e *Env) NumLive() int { return len(e.live) }

// Event kinds for the engine's typed (allocation-free) events. The
// payload is always the subject *Proc; Env is the simtime.Handler.
const (
	evStart = iota // first handoff to a freshly spawned proc
	evWake         // resume a parked proc at the current time
	evSleep        // a Proc.Sleep timer expired
)

// HandleEvent implements simtime.Handler, dispatching the engine's
// typed events. The (kind, *Proc) payload replaces the per-call closure
// the hot wake/start/sleep paths used to allocate.
func (e *Env) HandleEvent(kind int, arg any) {
	p := arg.(*Proc)
	switch kind {
	case evStart:
		e.start(p)
	case evWake:
		e.resume(p)
	case evSleep:
		p.sleepEv = simtime.Ref{}
		e.resume(p)
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", kind))
	}
}

// Go spawns a new proc running fn. The proc starts at the current
// simulated time, after the caller yields control. Go may be called from
// kernel context or from a running proc.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go on closed Env")
	}
	e.nextPID++
	if len(e.procSlab) == 0 {
		e.procSlab = make([]Proc, 32)
	}
	p := &e.procSlab[0]
	e.procSlab = e.procSlab[1:]
	if len(e.randSlab) == 0 {
		e.randSlab = make([]xrand.Rand, 32)
	}
	rng := &e.randSlab[0]
	e.randSlab = e.randSlab[1:]
	e.rand.SplitInto(rng)
	*p = Proc{
		env:  e,
		id:   e.nextPID,
		name: name,
		fn:   fn,
		rand: rng,
		wake: make(chan struct{}, 1),
	}
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
	e.queue.AfterCall(0, e, evStart, p)
	return p
}

// start launches p's goroutine and hands it its first turn.
func (e *Env) start(p *Proc) {
	if p.done || p.killed {
		// Killed before it ever ran: just retire it.
		p.done = true
		e.finish(p)
		return
	}
	// Hand the proc to a pooled worker goroutine, growing the pool only
	// when every worker is busy. An idle worker is parked on workerq, on
	// its way back to it, or is the caller itself: a proc that exits
	// runs the loop before its worker loops back. workerq and the wake
	// channel therefore hold one value each, so that worker can send the
	// new proc to itself and then pick it up.
	if e.idleWorkers > 0 {
		e.idleWorkers--
	} else {
		go e.procWorker()
	}
	e.workerq <- p
	p.launched = true
	p.waiting = true
	e.resume(p)
}

// procWorker runs proc bodies from the spawn queue until the Env closes.
// Proc panics (including the kill signal) are recovered inside
// Proc.exit, so one worker survives any number of procs.
func (e *Env) procWorker() {
	for p := range e.workerq {
		p.main()
	}
}

// resume hands control to p once the current event's handler returns:
// a tail handoff, recorded here and carried out by the loop (hold).
// Kernel context only, and at most once per event.
func (e *Env) resume(p *Proc) {
	if p.done || !p.launched || !p.waiting {
		return
	}
	if e.next != nil {
		panic(fmt.Sprintf("sim: %v resumed in the event that already resumes %v", p, e.next))
	}
	p.waiting = false
	e.next = p
}

// turnCont is a continuation recorded by AfterTurn.
type turnCont struct {
	h    simtime.Handler
	kind int
	arg  any
}

// AfterTurn runs h.HandleEvent(kind, arg) in kernel context once the
// proc the current event resumed has yielded again, or at once if the
// event resumed no proc. FinishCompute being a tail call, this is how
// an event handler sequences work after the resumed proc's turn. At
// most one continuation per event.
func (e *Env) AfterTurn(h simtime.Handler, kind int, arg any) {
	if e.next == nil {
		h.HandleEvent(kind, arg)
		return
	}
	if e.cont.h != nil {
		panic("sim: second AfterTurn in one event")
	}
	e.cont = turnCont{h, kind, arg}
}

// hold runs the dispatch loop on the calling goroutine, which has just
// taken control: p is the proc that yielded or exited there, nil for
// the driver. It returns the proc the next handoff goes to (p itself
// when an event resumed it), or nil once the loop has ended. A panic in
// kernel code is recovered here and left in panicVal for the driver.
func (e *Env) hold(p *Proc) (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.abort(r)
			next = nil
		}
	}()
	if p != nil {
		e.running = nil
		if p.done {
			e.idleWorkers++ // p's worker loops back to workerq after this
			e.finish(p)
			if e.panicVal != nil {
				e.abort(e.panicVal)
				return nil
			}
		}
		if c := e.cont; c.h != nil {
			e.cont = turnCont{}
			c.h.HandleEvent(c.kind, c.arg)
			if q := e.take(); q != nil {
				return q
			}
		}
	}
	for e.more() {
		e.queue.Step()
		e.events++
		if q := e.take(); q != nil {
			return q
		}
	}
	return nil
}

// take claims the handoff the last handler recorded, if any.
func (e *Env) take() *Proc {
	q := e.next
	if q != nil {
		e.next = nil
		e.running = q
	}
	return q
}

// pass gives up control: to q, or back to the driver when q is nil
// because the loop has ended. Once the send completes another goroutine
// holds the Env, so the caller must not touch it again until woken.
func (e *Env) pass(q *Proc) {
	e.switches++
	if q == nil {
		e.driverq <- struct{}{}
	} else {
		q.wake <- struct{}{}
	}
}

// abort ends the loop on a panic: v waits in panicVal for the driver,
// and any pending handoff or continuation is dropped. A dropped proc is
// parked again, so Close can still reap it.
func (e *Env) abort(v any) {
	e.panicVal = v
	if q := e.next; q != nil {
		q.waiting = true
		e.next = nil
	}
	e.cont = turnCont{}
}

// loop runs the dispatch loop from the driver's goroutine and returns
// once it has ended, on whichever goroutine that happened. A panic
// recovered along the way is re-raised here with its original value.
func (e *Env) loop() {
	if q := e.hold(nil); q != nil {
		e.pass(q)
		<-e.driverq
	}
	if v := e.panicVal; v != nil {
		e.panicVal = nil
		panic(v)
	}
}

// finish retires an exited proc.
func (e *Env) finish(p *Proc) {
	if p.liveIdx < 0 {
		return
	}
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[p.liveIdx] = moved
	moved.liveIdx = p.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
	p.liveIdx = -1
	if e.exec != nil {
		e.exec.ProcExit(p)
	}
	for _, fn := range p.exitHooks {
		fn()
	}
	p.exitHooks = nil
}

// wake schedules p to be resumed at the current time, after the active
// context yields. It is the only correct way to unblock a proc. The
// typed event allocates nothing: the queue recycles it once it fires.
func (e *Env) wake(p *Proc) {
	if p.done {
		return
	}
	e.queue.AfterCall(0, e, evWake, p)
}

// Wake schedules a proc parked with Proc.Block to resume at the current
// time, after the active context yields. Waking a proc that is not
// parked, or is dead, is a no-op at resume time, but spurious wakeups of
// procs parked on *other* conditions corrupt primitives — only wake procs
// you parked.
func (e *Env) Wake(p *Proc) { e.wake(p) }

// Kill requests that p terminate the next time it would run. Any pending
// compute or sleep is cancelled. Kill is intended for teardown: a killed
// proc blocked inside a synchronization primitive unwinds immediately and
// may leave that primitive held (see package comment on sync.go).
func (e *Env) Kill(p *Proc) {
	if p == nil || p.done || p.killed {
		return
	}
	p.killed = true
	if p == e.running {
		// Self-kill: unwinds at the proc's next yield, or immediately if
		// it calls Exit. Nothing else to do here.
		return
	}
	// CancelRef is inert on a zero or stale Ref, so no pending-check is
	// needed before cancelling a sleep timer that may have already fired.
	e.queue.CancelRef(p.sleepEv)
	p.sleepEv = simtime.Ref{}
	if e.exec != nil {
		e.exec.Cancel(p)
	}
	e.wake(p)
}

// KillAll kills every live proc. Call Run afterwards (or let the caller's
// Run continue) to let them unwind. Procs are killed in ascending PID
// order — never map-iteration order — so the wake events Kill schedules
// get deterministic sequence numbers and teardown replays identically
// run to run.
func (e *Env) KillAll() {
	procs := make([]*Proc, len(e.live))
	copy(procs, e.live)
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	for _, p := range procs {
		if p != e.running {
			e.Kill(p)
		}
	}
}

// Run dispatches events until none remain. It returns the number of
// events fired. Live procs may remain blocked when Run returns (e.g. a
// server waiting for requests that will never come); use Close to reap
// them. If limits are armed (SetLimits) and a guard trips, Run panics
// with the structured error; use RunGuarded to receive it as a value.
func (e *Env) Run() int {
	n, err := e.drive(simtime.Never)
	if err != nil {
		panic(err)
	}
	return n
}

// RunUntil dispatches events until the queue is empty or the next event
// would fire after the deadline, then advances the clock to the deadline.
// If limits are armed (SetLimits) and a guard trips — including deadlock
// detection on an early quiesce — RunUntil panics with the structured
// error; use RunGuarded to receive it as a value.
func (e *Env) RunUntil(deadline simtime.Time) int {
	n, err := e.drive(deadline)
	if err != nil {
		panic(err)
	}
	return n
}

// Close kills all remaining procs and drains the queue so no goroutines
// leak. The environment must not be used afterwards.
func (e *Env) Close() {
	if e.closed {
		return
	}
	// Teardown runs the same loop with its guards off. Repeated rounds:
	// unwinding procs can spawn wakeups for others.
	e.limits, e.cancel, e.deadline = Limits{}, nil, simtime.Never
	for i := 0; i < 1000 && len(e.live) > 0; i++ {
		e.KillAll()
		e.loop()
	}
	e.closed = true
	close(e.workerq) // releases the idle worker goroutines
	if len(e.live) > 0 {
		panic(fmt.Sprintf("sim: %d procs failed to terminate on Close: %s",
			len(e.live), strings.Join(e.liveNames(), ", ")))
	}
}

// killSignal is the panic value used to unwind killed procs.
type killSignal struct{}
