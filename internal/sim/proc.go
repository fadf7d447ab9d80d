package sim

import (
	"fmt"

	"asmp/internal/simtime"
	"asmp/internal/xrand"
)

// Proc is a simulated thread of execution. All methods except ID, Name,
// Affinity and SchedState must be called from within the proc's own body
// function; they yield control to the engine and block in simulated time.
type Proc struct {
	env  *Env
	id   int
	name string
	fn   func(*Proc)
	rand *xrand.Rand

	wake     chan struct{} // control handed to this proc's goroutine
	liveIdx  int           // position in the env's live table; -1 once retired
	launched bool          // goroutine exists and first handoff is pending or done
	waiting  bool          // parked in yield, waiting for resume
	killed   bool
	done     bool

	sleepEv   simtime.Ref
	affinity  CPUSet
	exitHooks []func()

	// SchedState is an opaque slot owned by the Executor for its per-proc
	// bookkeeping (run-queue links, placement history, ...).
	SchedState any
}

// main is one proc's turn on a pooled worker goroutine: wait for the
// first handoff, run the proc function, then retire the proc (exit).
func (p *Proc) main() {
	<-p.wake
	defer p.exit()
	if !p.killed {
		p.fn(p)
	}
}

// exit runs when p's body returns or panics. A genuine panic is kept
// for the driver to re-raise, so tests fail loudly instead of
// deadlocking; the recover is also what lets the worker survive and
// serve the next proc. The goroutine then carries the loop on until
// control passes elsewhere.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		if _, ok := r.(killSignal); !ok {
			p.env.panicVal = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
		}
	}
	p.done = true
	p.env.pass(p.env.hold(p))
}

// FinishCompute is the Executor's completion callback: it resumes p at
// the simulated time an issued Compute finishes. Kernel context only,
// and never synchronously from within Executor.Compute — always from a
// scheduled event. It is a tail call: p runs once the event's handler
// returns (see Env.AfterTurn for work that must follow p's turn).
func (p *Proc) FinishCompute() { p.env.resume(p) }

// ID returns the proc's unique id (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.id, p.name) }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() simtime.Time { return p.env.Now() }

// Rand returns this proc's private random stream.
func (p *Proc) Rand() *xrand.Rand { return p.rand }

// Affinity returns the proc's CPU affinity mask.
func (p *Proc) Affinity() CPUSet { return p.affinity }

// SetAffinity restricts the proc to the given cores. It takes effect on
// the next compute request; an in-flight burst is not migrated. Pass 0 to
// clear the restriction.
func (p *Proc) SetAffinity(s CPUSet) { p.affinity = s }

// Done reports whether the proc has exited.
func (p *Proc) Done() bool { return p.done }

// Killed reports whether the proc has been asked to terminate.
func (p *Proc) Killed() bool { return p.killed }

// OnExit registers fn to run (in kernel context) when the proc exits.
func (p *Proc) OnExit(fn func()) { p.exitHooks = append(p.exitHooks, fn) }

// yield parks the proc and runs the event loop on its goroutine until
// an event resumes a proc. If that is p itself, yield just returns;
// otherwise control passes on and p waits for its own wake. Must be
// called from the proc's own goroutine. Panics with killSignal if the
// proc was killed while parked.
func (p *Proc) yield() {
	p.waiting = true
	e := p.env
	if q := e.hold(p); q != p {
		e.pass(q)
		<-p.wake
	}
	if p.killed {
		panic(killSignal{})
	}
}

// checkContext panics if the method is invoked from outside the proc's
// active context, which would corrupt the engine's handoff discipline.
func (p *Proc) checkContext() {
	if p.env.running != p {
		panic(fmt.Sprintf("sim: %v operation invoked from outside its context", p))
	}
	if p.killed {
		panic(killSignal{})
	}
}

// Compute retires the given number of CPU cycles through the executor.
// How long that takes in simulated time depends on core speeds,
// contention and the scheduling policy.
func (p *Proc) Compute(cycles float64) {
	p.ComputeMem(cycles, 0)
}

// ComputeMem retires cycles of CPU work plus mem of memory-stall time.
// The stall occupies whichever core runs the burst for a fixed duration
// independent of the core's duty cycle, modelling work that waits on the
// (unmodulated) memory system.
func (p *Proc) ComputeMem(cycles float64, mem simtime.Duration) {
	p.checkContext()
	if cycles < 0 || mem < 0 {
		panic("sim: negative compute")
	}
	if cycles == 0 && mem == 0 {
		return
	}
	exec := p.env.exec
	if exec == nil {
		panic("sim: Compute with no executor installed")
	}
	exec.Compute(p, cycles, float64(mem))
	p.yield()
}

// Sleep suspends the proc for d of simulated time without consuming CPU.
// The timer is a typed event (kind evSleep), so sleeping allocates
// nothing; the handle is a generation-checked Ref, so Kill's
// cancellation path stays safe even if the timer already fired and the
// event was recycled.
func (p *Proc) Sleep(d simtime.Duration) {
	p.checkContext()
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.sleepEv = p.env.queue.AfterCall(d, p.env, evSleep, p)
	p.yield()
}

// SleepUntil suspends the proc until simulated time t (no-op if t has
// passed).
func (p *Proc) SleepUntil(t simtime.Time) {
	now := p.env.Now()
	if t <= now {
		return
	}
	p.Sleep(t - now)
}

// Exit terminates the proc immediately.
func (p *Proc) Exit() {
	p.checkContext()
	panic(killSignal{})
}

// block parks the proc after it has enqueued itself on some primitive's
// wait list. Used by the synchronization primitives in this package.
func (p *Proc) block() {
	p.yield()
}

// Block parks the proc until some other context calls Env.Wake on it.
// It is the extension point for building custom synchronization
// primitives outside this package (e.g. a garbage-collected heap that
// stalls allocators). The caller is responsible for keeping a reference
// to the proc and waking it exactly when its condition is satisfied.
func (p *Proc) Block() {
	p.checkContext()
	p.block()
}
