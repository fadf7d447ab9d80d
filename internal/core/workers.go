package core

// The process-wide host-parallelism bound. Cells of a sweep execute on
// a pool of harness workers (Experiment.run); figure regeneration fans
// experiments out the same way (internal/figures). Both size their
// pools from this knob, and — because pool sizing alone only bounds
// each *source* of parallelism, not their aggregate (N concurrent
// sweeps would otherwise run up to N×workers simulations at once, the
// asmp-serve load profile) — every simulation additionally holds one of
// the hostSlots execution slots for its duration. One flag — the CLIs'
// and asmp-serve's -workers — therefore bounds the process's actual
// simulation parallelism no matter how many pools are active. Host
// parallelism never affects results: cells are independent pure
// functions of their seeds, so only wall-clock time varies.

import (
	"runtime"
	"sync"
)

var defaultWorkers struct {
	mu sync.Mutex //asmp:allow goroutine guards the harness pool-size knob; it never influences simulation results
	n  int
}

// SetDefaultWorkers sets the process-wide worker-pool bound used by
// Experiment.Run (when Experiment.Workers is 0) and by figure
// regeneration: 0 restores the default (GOMAXPROCS), 1 means
// sequential, negative values are treated as 0. CLIs expose it as
// -workers.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.mu.Lock()
	defaultWorkers.n = n
	defaultWorkers.mu.Unlock()
	// A raised bound frees slots: wake anything waiting for one.
	hostSlots.cond.Broadcast()
}

// DefaultWorkers resolves the process-wide bound: the value set by
// SetDefaultWorkers, or GOMAXPROCS when unset; never below 1.
func DefaultWorkers() int {
	defaultWorkers.mu.Lock()
	n := defaultWorkers.n
	defaultWorkers.mu.Unlock()
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
		if n < 1 {
			n = 1
		}
	}
	return n
}

// hostSlots is the process-wide execution semaphore: DefaultWorkers()
// slots, one held per simulation (executeOn) for its duration. Pools
// still size themselves from DefaultWorkers for goroutine economy, but
// it is the slots that make the bound hold in aggregate across
// concurrent pools. Only the *leaf* simulation acquires a slot — never
// a pool worker for its lifetime, and never a cell-table waiter
// while it waits — so slot holders always make progress and release
// (no acquire ever happens while a slot is already held). Slots gate
// host scheduling only, never results: a simulation waiting for a slot
// runs later, not differently.
var hostSlots = struct {
	mu    sync.Mutex //asmp:allow goroutine guards the harness execution-slot count; never influences simulation results
	cond  *sync.Cond //asmp:allow goroutine wakes harness goroutines waiting for an execution slot
	inUse int
}{}

func init() {
	hostSlots.cond = sync.NewCond(&hostSlots.mu) //asmp:allow goroutine harness semaphore wiring
}

// acquireHostSlot claims an execution slot, blocking while
// DefaultWorkers() of them are in use. Paired with releaseHostSlot by
// executeOn. The bound is re-read on every wake, so SetDefaultWorkers
// takes effect immediately (a lowered bound drains through naturally:
// holders finish, waiters stay blocked until inUse sinks below it).
func acquireHostSlot() {
	hostSlots.mu.Lock()
	for hostSlots.inUse >= DefaultWorkers() {
		hostSlots.cond.Wait()
	}
	hostSlots.inUse++
	hostSlots.mu.Unlock()
}

// releaseHostSlot returns an execution slot and wakes waiters.
func releaseHostSlot() {
	hostSlots.mu.Lock()
	hostSlots.inUse--
	hostSlots.mu.Unlock()
	hostSlots.cond.Broadcast()
}
