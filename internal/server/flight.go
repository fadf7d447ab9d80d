package server

// Request-level coalescing and admission control.
//
// A flight is one admitted execution, keyed by the request's canonical
// identity (endpoint + every simulation-reaching parameter, after
// defaulting — never the deadline, which is per-waiter). Concurrent
// identical requests join the same flight: the first arrival enqueues
// it, later ones only wait. This is the server-level layer of the
// coalescing stack — below it, core's cell table deduplicates
// individual cells across flights, completed and in flight alike, so
// even *different* sweeps sharing cells don't recompute them.
//
// Waiters are refcounted. A waiter that hits its deadline (or whose
// client disconnects) leaves the flight; the last waiter to leave
// cooperatively cancels the execution — nobody wants the result, and
// core's cell table already holds every completed cell, so an identical
// later request re-simulates only what was left. Drain's hard stop
// cancels every remaining flight the same way.

import (
	"encoding/json"
	"sync"

	"asmp/internal/journal"
)

// cancelReason says why a flight's execution was cancelled.
type cancelReason string

const (
	reasonDeadline  cancelReason = "deadline"  // last waiter's deadline expired
	reasonAbandoned cancelReason = "abandoned" // last waiter's client disconnected
	reasonDrain     cancelReason = "drain"     // drain grace expired
)

// result is a completed execution's outcome, written by the worker
// before the flight's done channel closes and read-only afterwards.
type result struct {
	// status/ctype/body answer successful executions. For figure
	// flights body is nil and figure carries both renderings (waiters
	// of one flight may want different formats).
	status int
	ctype  string
	body   []byte
	figure *journal.Figure
	// errCode/errMsg describe failed executions (status carries the
	// HTTP code).
	errCode, errMsg string
	// cancelled marks an execution stopped by its flight's cancel
	// signal; partial optionally carries the partial payload (sweeps).
	// The flight's reason says why it was cancelled.
	cancelled bool
	partial   json.RawMessage
}

// flight is one admitted execution and its waiters.
type flight struct {
	key  string
	exec func(cancel <-chan struct{}) *result

	// cancel is closed (once) to cooperatively stop the execution;
	// reason is set before the close and read only by waiters that
	// observed a cancelled result.
	cancel     chan struct{}
	cancelOnce sync.Once
	reason     cancelReason

	// done is closed by the worker after res is set.
	done chan struct{}
	res  *result

	// waiters is guarded by Server.mu.
	waiters int
}

// cancelWith requests cooperative cancellation, recording why. The
// first reason wins.
func (f *flight) cancelWith(r cancelReason) {
	f.cancelOnce.Do(func() {
		f.reason = r
		close(f.cancel)
	})
}

// admitOutcome is how admit resolved a request.
type admitOutcome int

const (
	admitted        admitOutcome = iota // new flight enqueued; caller waits
	joined                              // coalesced onto an existing flight
	shed                                // queue full: 429
	refusedDraining                     // drain begun: 503
)

// admit coalesces the request onto an existing flight or enqueues a new
// one, enforcing drain and queue bounds. exec is only used when a new
// flight is created.
func (s *Server) admit(key string, exec func(<-chan struct{}) *result) (*flight, admitOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.requests++
	if s.draining {
		return nil, refusedDraining
	}
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.counters.coalesced++
		return f, joined
	}
	f := &flight{
		key:     key,
		exec:    exec,
		cancel:  make(chan struct{}),
		done:    make(chan struct{}),
		waiters: 1,
	}
	select {
	case s.jobs <- f:
		s.flights[key] = f
		return f, admitted
	default:
		s.counters.shed++
		return nil, shed
	}
}

// leave drops one waiter from a flight. The last waiter to leave
// cancels the execution and unlinks the flight so a later identical
// request starts fresh (reusing the memoized cells) instead of joining
// a dying flight.
func (s *Server) leave(f *flight, r cancelReason) (last bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.waiters--
	if f.waiters > 0 {
		return false
	}
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	f.cancelWith(r)
	return true
}

// worker executes queued flights until the jobs channel closes (end of
// Drain).
func (s *Server) worker() {
	defer s.workers.Done()
	for f := range s.jobs {
		f.res = s.runFlight(f)
		s.mu.Lock()
		if s.flights[f.key] == f {
			delete(s.flights, f.key)
		}
		s.mu.Unlock()
		close(f.done)
	}
}

// runFlight runs a flight's exec with a panic barrier: a panicking
// execution answers 500 instead of taking the daemon down.
func (s *Server) runFlight(f *flight) (res *result) {
	defer func() {
		if r := recover(); r != nil {
			s.opts.Logf("panic in %s: %v", f.key, r)
			res = &result{status: 500, errCode: "internal", errMsg: "execution panicked; see server log"}
		}
	}()
	return f.exec(f.cancel)
}
