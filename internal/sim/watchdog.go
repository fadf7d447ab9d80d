package sim

// This file implements the engine's run guards ("watchdogs"). A
// simulation is a pure function of its inputs, which means a buggy
// workload model wedges deterministically too: an event loop that never
// quiesces, a runaway spawn storm, or a deadlock that empties the event
// heap while procs are still parked on synchronization primitives.
// Limits turn each of those failure modes into a structured error the
// experiment framework can record, instead of a hung or crashed sweep.
//
// Two consumption styles are supported:
//
//   - RunGuarded returns the structured error directly, for callers that
//     drive the environment themselves.
//   - SetLimits arms the guards on the ordinary Run/RunUntil entry
//     points, which PANIC with the structured error when a guard trips.
//     Workload models drive the environment from deep inside their Run
//     methods and have no error channel to the framework; the panic
//     unwinds through them and is recovered by core.ExecuteSafe, which
//     converts it into a per-run error. A tripped environment stays
//     tripped: every later Run/RunUntil fails immediately, so even a
//     workload that loops around its drive calls cannot hang.

import (
	"fmt"
	"sort"
	"strings"

	"asmp/internal/simtime"
)

// Limits bounds a run. The zero value imposes no limits.
type Limits struct {
	// MaxVirtualTime aborts the run before dispatching any event
	// scheduled after this virtual time (0 = unlimited).
	MaxVirtualTime simtime.Time
	// MaxEvents aborts the run after this many dispatched events
	// (0 = unlimited).
	MaxEvents int
	// DetectDeadlock reports an error when a RunUntil quiesces before
	// its deadline with live procs still blocked — the signature of a
	// workload deadlock (every proc parked, nothing left to wake them).
	// It applies only to RunUntil: a full Run legitimately drains the
	// heap while server procs idle, and Run-style workloads verify their
	// own completion instead.
	DetectDeadlock bool
}

// Zero reports whether the limits impose no bounds.
func (l Limits) Zero() bool { return l == Limits{} }

// Guard limit identifiers, used in WatchdogError.Limit.
const (
	LimitVirtualTime = "virtual-time"
	LimitEvents      = "events"
)

// WatchdogError reports that a run exceeded one of its Limits.
type WatchdogError struct {
	// Limit identifies the exhausted guard (LimitVirtualTime or
	// LimitEvents).
	Limit string
	// At is the virtual time the run had reached when the guard tripped.
	At simtime.Time
	// Events is the number of events dispatched up to that point.
	Events int
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: %s limit exceeded at %v after %d events", e.Limit, e.At, e.Events)
}

// DeadlockError reports an event heap that emptied while procs were
// still blocked, before the drive deadline.
type DeadlockError struct {
	// At is the virtual time of the quiesce.
	At simtime.Time
	// Blocked names the procs that were still parked, in spawn order.
	Blocked []string
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: event heap empty with %d procs blocked: %s",
		e.At, len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// SetLimits arms the run guards on this environment. Pass the zero
// Limits to disarm. See the file comment for the panic contract on
// Run/RunUntil when a guard trips.
func (e *Env) SetLimits(l Limits) { e.limits = l }

// Limits returns the armed run guards.
func (e *Env) Limits() Limits { return e.limits }

// Err returns the structured error the environment tripped on, or nil.
// Once non-nil it never resets; Close still works for teardown.
func (e *Env) Err() error { return e.tripped }

// Events returns the total number of events dispatched so far.
func (e *Env) Events() int { return e.events }

// RunGuarded dispatches events up to the deadline (use simtime.Never to
// drain) under the armed Limits and returns the count plus a structured
// *WatchdogError or *DeadlockError when a guard trips. Unlike Run and
// RunUntil it never panics on a tripped guard.
func (e *Env) RunGuarded(deadline simtime.Time) (int, error) {
	return e.drive(deadline)
}

// drive is the guarded dispatch loop behind Run, RunUntil and
// RunGuarded. The loop runs on whichever goroutine holds control (see
// hold); the calling goroutine gets it back once the loop has ended.
func (e *Env) drive(deadline simtime.Time) (int, error) {
	if e.tripped != nil {
		// A poisoned environment refuses to continue, so callers that
		// loop around their drive calls terminate too.
		return 0, e.tripped
	}
	e.deadline = deadline
	start := e.events
	e.loop()
	n := e.events - start
	if e.tripped != nil {
		return n, e.tripped
	}
	if e.limits.DetectDeadlock && deadline != simtime.Never &&
		e.queue.Len() == 0 && len(e.live) > 0 && e.queue.Now() < deadline {
		e.tripped = &DeadlockError{At: e.queue.Now(), Blocked: e.liveNames()}
		return n, e.tripped
	}
	e.queue.AdvanceTo(deadline)
	return n, nil
}

// more reports whether the loop may dispatch the next event. It checks,
// in order, the cancel signal, the drive deadline and the armed limits,
// recording a tripped guard in e.tripped.
func (e *Env) more() bool {
	if e.cancelled() {
		e.tripped = &CancelledError{At: e.queue.Now(), Events: e.events}
		return false
	}
	next := e.queue.PeekTime()
	if next == simtime.Never || next > e.deadline {
		return false
	}
	if l := e.limits.MaxVirtualTime; l > 0 && next > l {
		e.tripped = &WatchdogError{Limit: LimitVirtualTime, At: e.queue.Now(), Events: e.events}
		return false
	}
	if l := e.limits.MaxEvents; l > 0 && e.events >= l {
		e.tripped = &WatchdogError{Limit: LimitEvents, At: e.queue.Now(), Events: e.events}
		return false
	}
	return true
}

// liveNames returns "name#pid" for every live proc, in spawn order,
// capped for readability.
func (e *Env) liveNames() []string {
	procs := make([]*Proc, len(e.live))
	copy(procs, e.live)
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	const cap = 16
	out := make([]string, 0, len(procs))
	for i, p := range procs {
		if i == cap {
			out = append(out, fmt.Sprintf("… %d more", len(procs)-cap))
			break
		}
		out = append(out, fmt.Sprintf("%s#%d", p.name, p.id))
	}
	return out
}
