package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"asmp/internal/cpu"
	"asmp/internal/digest"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/workload"
)

// Coalescing stress tests: GOMAXPROCS goroutines executing the same
// still-cold RunSpec must yield exactly one underlying execution and
// identical digests. Under `make test-race` these also prove the flight
// table is race-free — the de-risking the asmp-serve daemon's
// thundering-herd path rests on.

// herd releases n goroutines through a starting barrier, runs f(i) in
// each, and waits for all of them.
func herd(n int, f func(i int)) {
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			f(i)
		}(i)
	}
	start.Done()
	done.Wait()
}

func herdSize() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

func TestFlightConcurrentIdenticalSpecsExecuteOnce(t *testing.T) {
	ResetMemo()
	var execs atomic.Int64
	spec := memoSpec("flight-herd", &execs)
	n := herdSize()

	results := make([]workload.Result, n)
	errs := make([]error, n)
	herd(n, func(i int) {
		results[i], errs[i] = ExecuteSafe(spec)
	})

	if got := execs.Load(); got != 1 {
		t.Fatalf("underlying executions = %d, want exactly 1 for %d concurrent identical specs", got, n)
	}
	st := MemoStats()
	led, coalesced, hits := st.Led, st.Coalesced, st.Hits
	if led != 1 {
		t.Fatalf("flights led = %d, want 1", led)
	}
	// Everybody but the leader was served either by waiting on the
	// flight or, if it arrived after the flight retired, by the memo.
	if coalesced+hits != uint64(n-1) {
		t.Fatalf("coalesced (%d) + memo hits (%d) = %d, want %d", coalesced, hits, coalesced+hits, n-1)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i].Digest != results[0].Digest {
			t.Fatalf("goroutine %d digest = %v, others %v: coalesced results diverge", i, results[i].Digest, results[0].Digest)
		}
		if results[i].Value != results[0].Value {
			t.Fatalf("goroutine %d value = %v, others %v", i, results[i].Value, results[0].Value)
		}
	}

	// A second herd is served entirely from the memo: no new execution,
	// no new flight.
	herd(n, func(int) {
		if _, err := ExecuteSafe(spec); err != nil {
			t.Errorf("warm herd: %v", err)
		}
	})
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions after warm herd = %d, want still 1", got)
	}
	if led := MemoStats().Led; led != 1 {
		t.Fatalf("flights led after warm herd = %d, want still 1", led)
	}
}

func TestFlightServedCopiesDoNotAlias(t *testing.T) {
	ResetMemo()
	var execs atomic.Int64
	spec := memoSpec("flight-alias", &execs)
	herd(herdSize(), func(int) {
		res, err := ExecuteSafe(spec)
		if err != nil {
			t.Errorf("ExecuteSafe: %v", err)
			return
		}
		// Every caller owns its Extras: concurrent scribbling must not
		// race (the race detector proves it) nor corrupt the cache.
		res.Extras["scribble"] = 1
	})
	res, err := ExecuteSafe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, leaked := res.Extras["scribble"]; leaked {
		t.Fatal("a herd member's mutation leaked into the shared cache")
	}
}

func TestFlightLeaderFailureNeverShared(t *testing.T) {
	ResetMemo()
	var execs atomic.Int64
	spec := RunSpec{
		Workload: panicProbe{execs: &execs},
		Config:   cpu.MustParseConfig("4f-0s"),
		Sched:    sched.Defaults(sched.PolicyNaive),
		Seed:     1,
	}
	n := herdSize()
	var fails atomic.Int64
	herd(n, func(int) {
		if _, err := ExecuteSafe(spec); err != nil {
			fails.Add(1)
		}
	})
	if got := fails.Load(); got != int64(n) {
		t.Fatalf("failures = %d, want %d (a leader's failure must never be served to waiters as success)", got, n)
	}
	// Failures re-execute deterministically; none may be cached.
	if entries := MemoStats().Entries; entries != 0 {
		t.Fatalf("memo entries after failing herd = %d, want 0", entries)
	}
}

// gateProbe is an Identifier workload that blocks on a real channel
// before simulating, letting tests hold a flight open deterministically.
type gateProbe struct {
	id    string
	gate  <-chan struct{}
	execs *atomic.Int64
}

func (w gateProbe) Name() string     { return "gate-probe" }
func (w gateProbe) Identity() string { return "gate-probe|" + w.id }

func (w gateProbe) Run(pl *workload.Platform) workload.Result {
	w.execs.Add(1)
	<-w.gate
	pl.Env.Go("probe", func(p *sim.Proc) { p.Compute(1e5) })
	pl.Env.Run()
	return workload.Result{
		Metric:         "throughput",
		Value:          pl.Config.ComputePower(),
		HigherIsBetter: true,
	}
}

func TestFlightWaiterCancelledMidFlight(t *testing.T) {
	ResetMemo()
	var execs atomic.Int64
	gate := make(chan struct{})
	spec := RunSpec{
		Workload: gateProbe{id: "waiter-cancel", gate: gate, execs: &execs},
		Config:   cpu.MustParseConfig("2f-2s/8"),
		Sched:    sched.Defaults(sched.PolicyNaive),
		Seed:     1,
	}

	// Leader enters and blocks on the gate mid-execution.
	leaderErr := make(chan error, 1)
	go func() {
		_, err := ExecuteSafe(spec)
		leaderErr <- err
	}()
	for execs.Load() == 0 {
		runtime.Gosched()
	}

	// Waiter joins the live flight, then its Cancel fires. It must
	// abandon the flight and fail ErrCancelled — regardless of whether
	// it was already waiting or arrives after the cancel.
	cancel := make(chan struct{})
	waiter := spec
	waiter.Cancel = cancel
	waiterErr := make(chan error, 1)
	go func() {
		_, err := ExecuteSafe(waiter)
		waiterErr <- err
	}()
	close(cancel)
	close(gate)

	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-waiterErr; !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled waiter: err = %v, want ErrCancelled", err)
	}
	// The leader's success is cached despite the waiter's abandonment.
	res, err := ExecuteSafe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == 0 {
		t.Fatal("cached leader result is empty")
	}
}

func TestFlightPreCancelledSpecNeverJoins(t *testing.T) {
	ResetMemo()
	var execs atomic.Int64
	spec := memoSpec("flight-precancel", &execs)
	cancel := make(chan struct{})
	close(cancel)
	cancelled := spec
	cancelled.Cancel = cancel
	if _, err := ExecuteSafe(cancelled); !errors.Is(err, ErrCancelled) {
		t.Fatalf("pre-cancelled spec: err = %v, want ErrCancelled", err)
	}
	if st := MemoStats(); st.Led != 0 || st.Coalesced != 0 {
		t.Fatalf("flight stats = (%d led, %d coalesced), want zeros: cancelled specs execute directly", st.Led, st.Coalesced)
	}
}

// failFirstProbe is an Identifier workload whose first failFirst completed
// simulations panic. A run stopped by its Cancel never reaches the
// count, so runs and successes count exactly the simulations that ran
// to the end. Every run first blocks on gate.
type failFirstProbe struct {
	id   string
	gate <-chan struct{}
	st   *failFirstState
}

type failFirstState struct {
	failFirst       int64
	runs, successes atomic.Int64
}

func (w failFirstProbe) Name() string     { return "fail-first-probe" }
func (w failFirstProbe) Identity() string { return "fail-first-probe|" + w.id }

func (w failFirstProbe) Run(pl *workload.Platform) workload.Result {
	<-w.gate
	pl.Env.Go("probe", func(p *sim.Proc) { p.Compute(1e5) })
	pl.Env.Run()
	if w.st.runs.Add(1) <= w.st.failFirst {
		panic("deliberate failure")
	}
	w.st.successes.Add(1)
	return workload.Result{
		Metric:         "throughput",
		Value:          pl.Config.ComputePower(),
		HigherIsBetter: true,
	}
}

// TestCellTableStress drives the one cell table with a disk cache
// attached: many goroutines over overlapping keys, leaders that fail
// their first executions (or always), pre-cancelled specs and waiters
// whose Cancel fires mid-wait. Each key must simulate successfully
// exactly once, no failure may be served to anyone but the caller whose
// execution failed, every cancelled caller must fail ErrCancelled, and
// the table must end with one completed cell per successful key and no
// in-flight cell left behind.
func TestCellTableStress(t *testing.T) {
	disk := withDiskCache(t)
	gate := make(chan struct{})
	failFirst := []int64{0, 0, 1, 2, 3, 1 << 40} // the last key never succeeds
	const perKey = 12                            // by i%4: pre-cancelled, cancelled mid-wait, 2× plain
	probes := make([]failFirstProbe, len(failFirst))
	for k, f := range failFirst {
		probes[k] = failFirstProbe{id: fmt.Sprintf("stress-%d", k), gate: gate, st: &failFirstState{failFirst: f}}
	}
	spec := func(k int) RunSpec {
		return RunSpec{
			Workload: probes[k],
			Config:   cpu.MustParseConfig("2f-2s/8"),
			Sched:    sched.Defaults(sched.PolicyNaive),
			Seed:     7,
		}
	}
	closed := make(chan struct{})
	close(closed)
	midWait := make(chan struct{})

	n := len(failFirst) * perKey
	results := make([]workload.Result, n)
	errs := make([]error, n)
	var released sync.WaitGroup
	released.Add(1)
	go func() {
		defer released.Done()
		// Every caller that may join has made its first lookup once the
		// misses reach them all (nothing can complete while the gate is
		// shut), so each is now a blocked leader or a waiter.
		for MemoStats().Misses < uint64(n-n/4) {
			runtime.Gosched()
		}
		close(midWait)
		close(gate)
	}()
	herd(n, func(i int) {
		k, s := i/perKey, spec(i/perKey)
		switch i % 4 {
		case 0:
			s.Cancel = closed
		case 1:
			s.Cancel = midWait
		case 3:
			if failFirst[k] == 0 {
				// Healthy keys also take the panicking entry point.
				results[i] = Execute(s)
				return
			}
		}
		results[i], errs[i] = ExecuteSafe(s)
	})
	released.Wait()

	succeeded := 0
	for k, p := range probes {
		runs, successes := p.st.runs.Load(), p.st.successes.Load()
		wantSuccesses := int64(1)
		if failFirst[k] >= perKey {
			wantSuccesses = 0
		}
		if successes != wantSuccesses {
			t.Errorf("key %d: %d successful simulations, want %d", k, successes, wantSuccesses)
		}
		succeeded += int(successes)
		var failed int64
		var served digest.Digest
		for i := k * perKey; i < (k+1)*perKey; i++ {
			err := errs[i]
			switch {
			case i%4 < 2:
				if !errors.Is(err, ErrCancelled) {
					t.Errorf("key %d caller %d (cancelled): err = %v, want ErrCancelled", k, i, err)
				}
			case err != nil:
				failed++
			case results[i].Digest == 0 || served != 0 && results[i].Digest != served:
				t.Errorf("key %d caller %d: served digest %v, others %v", k, i, results[i].Digest, served)
			default:
				served = results[i].Digest
			}
		}
		// Each failed simulation reaches exactly its own leader.
		if want := runs - successes; failed != want {
			t.Errorf("key %d: %d callers saw a failure, want %d (one per failed simulation)", k, failed, want)
		}
	}

	st := MemoStats()
	if st.Entries != succeeded {
		t.Errorf("memo entries = %d, want %d (one per key that succeeded)", st.Entries, succeeded)
	}
	if st.Disk.Stored != uint64(succeeded) {
		t.Errorf("disk stored = %d, want %d", st.Disk.Stored, succeeded)
	}
	cells.mu.Lock()
	inFlight := cells.inFlight
	for key, c := range cells.m {
		if c.done != nil {
			t.Errorf("cell %s left in flight", key.workload)
		}
	}
	cells.mu.Unlock()
	if inFlight != 0 {
		t.Errorf("in-flight count = %d, want 0", inFlight)
	}

	// A fresh memo over the warm disk: one verified disk read per key
	// serves the whole herd, and nothing simulates successfully again.
	ResetMemo()
	before := disk.Stats().Hits
	herd(n, func(i int) { ExecuteSafe(spec(i / perKey)) })
	if hits := disk.Stats().Hits - before; hits != uint64(succeeded) {
		t.Errorf("warm herd disk hits = %d, want %d (one per completed key)", hits, succeeded)
	}
	for k, p := range probes {
		if s := p.st.successes.Load(); s > 1 {
			t.Errorf("key %d: %d successful simulations after the warm herd, want at most 1", k, s)
		}
	}
	if st := MemoStats(); st.Entries != succeeded {
		t.Errorf("warm memo entries = %d, want %d", st.Entries, succeeded)
	}
}
