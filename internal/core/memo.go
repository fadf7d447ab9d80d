package core

import (
	"sync"

	"asmp/internal/resultcache"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/workload"
)

// The cell table: memoization and coalescing in one place.
//
// The paper's figures reuse cells heavily: the symmetric baselines
// (4f-0s, 2f-0s, 1f-0s) recur in nearly every panel, and Quick and full
// presets share their low-repetition prefixes. Because a run is a pure
// function of (workload identity, config, scheduler options, seed, fault
// plan, limits), its Result — digest included — can be kept under that
// identity and replayed for free the next time anyone asks for the
// exact same cell.
//
// One process-wide table, under one mutex, holds a cell per key. A
// cell is in flight while its leader — the first caller to miss —
// simulates it; concurrent callers for the same key wait on the leader
// instead of simulating the cell again (the asmp-serve daemon's
// thundering herd). When the leader succeeds the cell completes in
// place and later callers are served from it; when the leader fails
// the cell leaves the table. The table also holds the attached disk
// result cache (diskcache.go), which only a leader consults.
//
// The table can never change what a caller observes:
//
//   - The key covers every input that reaches the simulation. Workloads
//     opt in by implementing workload.Identifier, whose contract requires
//     Identity() to render every behaviour-affecting option.
//   - Runs with a Tracer or Observe hook never touch the table — those
//     callers want the run's side effects, not just its Result.
//     core.VerifyDeterminism always sets a Tracer, so replay audits
//     always re-execute.
//   - A spec whose Cancel signal is already closed never joins: it
//     executes and deterministically fails with ErrCancelled at the
//     first event boundary (see cancelRequested), so cancelled sweeps
//     stop recording cells instead of draining hits. A waiter whose
//     Cancel fires while waiting is never served, even when the
//     leader's Result arrives at the same moment; it executes directly
//     and fails the same way.
//   - Only successful runs complete a cell, and only after teardown
//     succeeded. A failure is never served: the failed leader's waiters
//     go back to the table, where one of them leads a fresh execution
//     (failing identically, since runs are deterministic) and the rest
//     wait on it.
//   - Results are defensively copied on completion and on every hit, so
//     no caller can mutate another's Extras map through the table.
type memoKey struct {
	workload string
	config   string
	sched    sched.Options
	seed     uint64
	fault    string
	limits   sim.Limits
}

// cell is one entry of the cell table.
type cell struct {
	// res is the completed cell's Result, written once before done is
	// closed.
	res workload.Result
	// done is open while the leader runs and closed when it finishes. A
	// completed cell drops it (nil); a failed one keeps it, closed, and
	// leaves the table.
	done chan struct{}
}

// cells is the process-wide cell table. Unbounded by design: a full
// figure sweep completes a few thousand small Results, and the process
// exits when the sweep does.
var cells struct {
	mu       sync.Mutex //asmp:allow goroutine guards harness parallelism: sweep workers and server requests share the table; a cell's Result is identical regardless of arrival order
	m        map[memoKey]*cell
	inFlight int
	disk     *resultcache.Cache
	// hits and misses count first lookups (a waiter's was a miss); led
	// counts executions started for memoizable keys, coalesced the
	// calls served by waiting on one.
	hits, misses, led, coalesced uint64
}

// memoKeyFor returns spec's cache key and whether spec is memoizable at
// all. Non-memoizable specs (workload without an Identity, or a run with
// observation hooks attached) always execute.
func memoKeyFor(spec RunSpec) (memoKey, bool) {
	if spec.Tracer != nil || spec.Observe != nil {
		return memoKey{}, false
	}
	id, ok := spec.Workload.(workload.Identifier)
	if !ok {
		return memoKey{}, false
	}
	fp := spec.faultText
	if fp == "" {
		fp = spec.Fault.String()
	}
	return memoKey{
		workload: id.Identity(),
		config:   spec.Config.String(),
		sched:    spec.Sched,
		seed:     spec.Seed,
		fault:    fp,
		limits:   spec.Limits,
	}, true
}

// cancelRequested reports whether a cooperative cancel signal is already
// closed, without blocking. A cancelled spec must not be served from the
// cell table: the contract is that it fails with ErrCancelled at the
// first event boundary, so it has to execute (the failure is
// deterministic and never completes a cell).
func cancelRequested(c <-chan struct{}) bool {
	if c == nil {
		return false
	}
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// memoized is the front-end Execute and ExecuteSafe share: it resolves
// spec against the cell table and calls simulate only when the caller
// has to run the cell itself. simulate reports a failure as an error or
// a panic; either way the cell never completes with it.
func memoized(spec RunSpec, simulate func(RunSpec) (workload.Result, error)) (workload.Result, error) {
	key, ok := memoKeyFor(spec)
	if !ok {
		return simulate(spec)
	}
	for first := true; !cancelRequested(spec.Cancel); first = false {
		cells.mu.Lock()
		c := cells.m[key]
		if c != nil && c.done == nil {
			cells.hits++
			res := cloneResult(c.res)
			cells.mu.Unlock()
			return res, nil
		}
		if first {
			cells.misses++
		}
		if c == nil {
			c = &cell{done: make(chan struct{})}
			if cells.m == nil {
				cells.m = map[memoKey]*cell{}
			}
			cells.m[key] = c
			cells.inFlight++
			cells.led++
			disk := cells.disk
			cells.mu.Unlock()
			return lead(spec, key, c, disk, simulate)
		}
		done := c.done
		cells.mu.Unlock()
		if res, served := wait(c, done, spec.Cancel); served {
			return res, nil
		}
	}
	// Cancelled before joining or while waiting: execute directly and
	// fail ErrCancelled at the first event boundary.
	return simulate(spec)
}

// lead runs an in-flight cell's execution and completes or retires the
// cell on every exit, panics included. A verified disk hit stands in for
// the simulation; a simulated Result is published to disk before the
// cell completes.
func lead(spec RunSpec, key memoKey, c *cell, disk *resultcache.Cache, simulate func(RunSpec) (workload.Result, error)) (res workload.Result, err error) {
	ok := false
	defer func() { finish(key, c, res, ok) }()
	var ck resultcache.Key
	if disk != nil {
		ck = cacheKeyFor(key)
		if hit, found := disk.Get(ck); found {
			ok = true
			return hit, nil
		}
	}
	res, err = simulate(spec)
	if err != nil {
		return res, err
	}
	if disk != nil {
		// Best-effort: a failed publish never fails the run.
		disk.Put(ck, res)
	}
	ok = true
	return res, nil
}

// finish ends c's flight: on success the cell completes in place with a
// private copy of res; on failure it leaves the table. Either way its
// waiters are released.
func finish(key memoKey, c *cell, res workload.Result, ok bool) {
	cells.mu.Lock()
	defer cells.mu.Unlock()
	cells.inFlight--
	if !ok {
		delete(cells.m, key)
		close(c.done)
		return
	}
	c.res = cloneResult(res)
	close(c.done)
	c.done = nil
}

// wait blocks until c's leader finishes or cancel fires, and reports
// whether the caller is served. It is not served when the leader
// failed, nor once cancel has fired — even when both arrive together.
func wait(c *cell, done, cancel <-chan struct{}) (workload.Result, bool) {
	select {
	case <-done:
	case <-cancel:
		return workload.Result{}, false
	}
	cells.mu.Lock()
	defer cells.mu.Unlock()
	if c.done != nil || cancelRequested(cancel) {
		return workload.Result{}, false
	}
	cells.coalesced++
	return cloneResult(c.res), true
}

// cloneResult deep-copies the one mutable field of a Result (the Extras
// map) so table entries and served hits never alias caller state.
func cloneResult(r workload.Result) workload.Result {
	if r.Extras != nil {
		ex := make(map[string]float64, len(r.Extras))
		for k, v := range r.Extras {
			ex[k] = v
		}
		r.Extras = ex
	}
	return r
}

// MemoReport is a snapshot of the process-wide cell-table counters,
// plus the attached disk cache's (all zero when no cache is attached).
type MemoReport struct {
	// Entries is the number of completed cells the table holds.
	Entries int
	// Hits and Misses count in-memory lookups. Non-memoizable runs
	// count as neither; a disk hit counts as a memo miss first (the
	// memo was consulted and had nothing).
	Hits, Misses uint64
	// Led counts executions started for memoizable keys (a disk hit
	// included); Coalesced counts calls served by waiting on a leader's
	// in-flight execution. Memo hits count as neither.
	Led, Coalesced uint64
	// Disk holds the attached disk cache's counters (resultcache).
	Disk resultcache.Stats
}

// MemoStats reports the process-wide cell-table counters: completed
// cells held, lookups served and missed, executions led and calls
// coalesced onto them, plus the disk cache's counters when one is
// attached.
func MemoStats() MemoReport {
	cells.mu.Lock()
	r := MemoReport{
		Entries:   len(cells.m) - cells.inFlight,
		Hits:      cells.hits,
		Misses:    cells.misses,
		Led:       cells.led,
		Coalesced: cells.coalesced,
	}
	disk := cells.disk
	cells.mu.Unlock()
	if disk != nil {
		r.Disk = disk.Stats()
	}
	return r
}

// ResetMemo drops every completed cell and zeroes the counters. Tests
// and benchmarks use it to measure cold-path behaviour. In-flight cells
// stay, so their waiters are not stranded; they complete normally.
func ResetMemo() {
	cells.mu.Lock()
	defer cells.mu.Unlock()
	for k, c := range cells.m {
		if c.done == nil {
			delete(cells.m, k)
		}
	}
	cells.hits, cells.misses, cells.led, cells.coalesced = 0, 0, 0, 0
}
