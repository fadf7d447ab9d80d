// Package server implements asmp-serve: a long-running daemon that
// answers "execute this run / run this sweep / render this figure"
// queries over HTTP/JSON, layered on the deterministic core.
//
// The resilience envelope, in one place:
//
//   - Coalescing: concurrent requests with the same canonical identity
//     share one execution (a server-level singleflight keyed by the full
//     request identity, layered on core's cell memo and its own
//     cell-level coalescing). N identical sweeps cost one sweep.
//   - Deadlines: every request carries a wall-clock deadline (default
//     Options.DefaultDeadline, capped at Options.MaxDeadline). An
//     expired request gets a typed 504 envelope; when the last waiter
//     expires, the underlying execution is cooperatively cancelled via
//     core's Cancel machinery and the 504 carries the partial sweep.
//   - Admission control: work enters a bounded queue drained by a fixed
//     worker pool. A full queue sheds load with 429 + Retry-After
//     instead of accumulating unbounded goroutines or latency.
//   - Graceful drain: Drain marks the server not-ready, refuses new
//     work, and gives in-flight executions Options.DrainTimeout to
//     finish; whatever is still running is then cooperatively cancelled
//     and answered with a typed 503. Cells completed before the drain
//     are already published to the disk result cache when one is
//     attached, so the result cache warms a restarted server: it
//     re-simulates only the cells the drain cut off, and its answer is
//     byte-identical to an uninterrupted run.
//
// Determinism contract: every response body is a pure function of the
// request identity. Coalescing, memoization, the result cache and the
// worker pool only change wall-clock time and which process computed
// the bytes — never the bytes. A figure rendered by the server is
// byte-identical to the same figure rendered by asmp-run.
//
// The package sits in the lint suite's deterministic scope for its
// artifacts, but is a harness package for its machinery (see
// internal/analysis: harnessPackages): goroutines here carry requests,
// never simulation state.
package server

import (
	"sync"
	"time"

	"asmp/internal/core"
)

// Options tunes the daemon. The zero value serves with sensible
// defaults; see each field.
type Options struct {
	// Workers is the number of pool goroutines executing admitted
	// requests; 0 means core.DefaultWorkers() (the process-wide -workers
	// knob, defaulting to GOMAXPROCS). Request concurrency does not
	// multiply simulation concurrency: however many requests execute at
	// once, core's execution slots cap actual simulation parallelism at
	// the same -workers bound process-wide.
	Workers int
	// QueueDepth bounds requests admitted but not yet executing; 0
	// means 2×Workers. A full queue sheds new work with 429.
	QueueDepth int
	// DefaultDeadline applies to requests that carry none (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps every request's deadline (default 5m).
	MaxDeadline time.Duration
	// DrainTimeout is how long Drain lets in-flight work finish before
	// cooperatively cancelling it (default 10s).
	DrainTimeout time.Duration
	// Logf, when non-nil, receives operational log lines (stderr in
	// asmp-serve). Never used for response bodies.
	Logf func(format string, args ...any)
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = core.DefaultWorkers()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 30 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 5 * time.Minute
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server is the daemon state. Create with New, expose Handler over an
// http.Server, stop with Drain.
type Server struct {
	opts Options

	mu       sync.Mutex
	flights  map[string]*flight
	draining bool
	counters counters

	jobs    chan *flight
	workers sync.WaitGroup

	// drainStarted is closed when Drain begins (readiness flips); it is
	// informational — admission itself is refused under mu.
	drainStarted chan struct{}
}

// counters are the monotonic stats, guarded by Server.mu.
type counters struct {
	requests     uint64
	coalesced    uint64
	shed         uint64
	expired      uint64
	forced       uint64
	latencyCount uint64
	// latencyTotal and latencyMax are kept at full resolution and
	// truncated to milliseconds only in StatsSnapshot, so sub-millisecond
	// requests still add up.
	latencyTotal time.Duration
	latencyMax   time.Duration
}

// New starts a server: the worker pool is running and Handler is ready
// to serve. Callers must eventually call Drain.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:         o,
		flights:      map[string]*flight{},
		jobs:         make(chan *flight, o.QueueDepth),
		drainStarted: make(chan struct{}),
	}
	for i := 0; i < o.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// drainPoll is how often Drain re-checks for quiescence. Harness-only:
// it bounds drain latency jitter, never any result.
const drainPoll = 5 * time.Millisecond

// Drain gracefully stops the server: new work is refused (503, readyz
// flips), in-flight work gets Options.DrainTimeout to finish, and
// whatever is still running is then cooperatively cancelled — those
// requests receive typed 503 envelopes (with partial results where the
// execution produced any). Completed cells are already memoized (and
// published to the disk cache when one is attached), so nothing is lost
// either way. Drain returns once the pool is idle,
// reporting how many executions had to be cancelled. Calling Drain
// twice is an error in the caller; the second call panics on the closed
// channel by design.
func (s *Server) Drain() (forced int) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	close(s.drainStarted)

	deadline := time.Now().Add(s.opts.DrainTimeout) //asmp:allow walltime drain grace is a wall-clock budget; it gates no simulation result
	cancelled := false
	for {
		s.mu.Lock()
		n := len(s.flights)
		if n > 0 && !cancelled && time.Now().After(deadline) { //asmp:allow walltime drain grace check
			for _, f := range s.flights {
				forced++
				f.cancelWith(reasonDrain)
			}
			s.counters.forced += uint64(forced)
			cancelled = true
		}
		s.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(drainPoll) //asmp:allow walltime drain quiescence polling, harness only
	}
	close(s.jobs)
	s.workers.Wait()
	return forced
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats is the /stats payload. Every field is cumulative since process
// start unless stated otherwise.
type Stats struct {
	// Requests counts admissions attempted (all data endpoints).
	Requests uint64 `json:"requests"`
	// Coalesced counts requests served by joining another request's
	// in-flight execution (server-level; core-level cell coalescing is
	// under Flight).
	Coalesced uint64 `json:"coalesced"`
	// Shed counts requests refused with 429 because the queue was full.
	Shed uint64 `json:"shed"`
	// Expired counts requests that hit their deadline (504).
	Expired uint64 `json:"expired"`
	// Forced counts executions cancelled by Drain's hard stop.
	Forced uint64 `json:"forced"`
	// ActiveFlights and QueueDepth are instantaneous; QueueCapacity and
	// Workers are configuration.
	ActiveFlights int  `json:"activeFlights"`
	QueueDepth    int  `json:"queueDepth"`
	QueueCapacity int  `json:"queueCapacity"`
	Workers       int  `json:"workers"`
	Draining      bool `json:"draining"`
	// Memo and Flight expose core's process-wide cell cache and
	// cell-level coalescing counters.
	Memo struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
	} `json:"memo"`
	// Cache exposes the disk result cache's counters (core's attached
	// resultcache; all zero when the daemon runs with -no-cache or no
	// cache dir). A restarted daemon on the same cache dir counts its
	// predecessor's cells as Hits. Refused counts corrupt entries set aside as .damaged
	// — always served by re-simulation, never by the damaged bytes.
	Cache struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		Refused     uint64 `json:"refused"`
		Stored      uint64 `json:"stored"`
		StoreErrors uint64 `json:"storeErrors"`
		Evicted     uint64 `json:"evicted"`
	} `json:"cache"`
	Flight struct {
		Led       uint64 `json:"led"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"flight"`
	// Latency summarises data-endpoint wall time in milliseconds.
	// Observability only; responses never embed wall time.
	Latency struct {
		Count   uint64 `json:"count"`
		TotalMs int64  `json:"totalMs"`
		MaxMs   int64  `json:"maxMs"`
	} `json:"latency"`
}

// StatsSnapshot returns the current Stats.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	st := Stats{
		Requests:      s.counters.requests,
		Coalesced:     s.counters.coalesced,
		Shed:          s.counters.shed,
		Expired:       s.counters.expired,
		Forced:        s.counters.forced,
		ActiveFlights: len(s.flights),
		QueueDepth:    len(s.jobs),
		QueueCapacity: s.opts.QueueDepth,
		Workers:       s.opts.Workers,
		Draining:      s.draining,
	}
	st.Latency.Count = s.counters.latencyCount
	st.Latency.TotalMs = s.counters.latencyTotal.Milliseconds()
	st.Latency.MaxMs = s.counters.latencyMax.Milliseconds()
	s.mu.Unlock()
	ms := core.MemoStats()
	st.Memo.Entries, st.Memo.Hits, st.Memo.Misses = ms.Entries, ms.Hits, ms.Misses
	st.Cache.Hits, st.Cache.Misses, st.Cache.Refused = ms.Disk.Hits, ms.Disk.Misses, ms.Disk.Refused
	st.Cache.Stored, st.Cache.StoreErrors, st.Cache.Evicted = ms.Disk.Stored, ms.Disk.StoreErrors, ms.Disk.Evicted
	st.Flight.Led, st.Flight.Coalesced = ms.Led, ms.Coalesced
	return st
}

// observeLatency records one data-endpoint service time.
func (s *Server) observeLatency(elapsed time.Duration) {
	s.mu.Lock()
	s.counters.latencyCount++
	s.counters.latencyTotal += elapsed
	s.counters.latencyMax = max(s.counters.latencyMax, elapsed)
	s.mu.Unlock()
}
