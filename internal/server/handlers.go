package server

// HTTP surface. Three data endpoints (run, sweep, figure) share the
// admit/await protocol; three control endpoints (healthz, readyz,
// stats) answer immediately; two listing endpoints aid discovery.
// POST /v1/sweep decodes through core.SweepSpec, asmp-sweep's own
// decoder, so anything asmp-sweep accepts, POST /v1/sweep accepts.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/figures"
	"asmp/internal/sched"
	"asmp/internal/workload"

	_ "asmp/internal/workload/h264"
	_ "asmp/internal/workload/jappserver"
	_ "asmp/internal/workload/jbb"
	_ "asmp/internal/workload/multiprog"
	_ "asmp/internal/workload/omp"
	_ "asmp/internal/workload/pmake"
	_ "asmp/internal/workload/tpch"
	_ "asmp/internal/workload/web"
)

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/figures", s.handleFigures)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/figure/{id}", s.handleFigure)
	return mux
}

// errorEnvelope is every non-200 body: a typed code, a human message,
// and — for cancelled executions that got partway — the partial result.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
	Partial json.RawMessage `json:"partial,omitempty"`
}

// writeError emits the envelope. 429 carries Retry-After so well-behaved
// clients back off.
func writeError(w http.ResponseWriter, status int, code, msg string, partial json.RawMessage) {
	w.Header().Set("Content-Type", ctJSON)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = msg
	env.Partial = partial
	if err := json.NewEncoder(w).Encode(&env); err != nil {
		// The client is gone or the connection broke; nothing to do.
		_ = err
	}
}

// resolveDeadline applies the default and the cap to a request's
// deadlineMs field (0 = default). ms is compared with the cap before it
// is converted: time.Duration(ms) * time.Millisecond overflows for ms
// above math.MaxInt64/1e6 (~292 years) and would wrap negative.
func (s *Server) resolveDeadline(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("deadlineMs must be non-negative, got %d", ms)
	}
	d := s.opts.DefaultDeadline
	if ms > 0 {
		d = s.opts.MaxDeadline
		if ms <= d.Milliseconds() {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	return min(d, s.opts.MaxDeadline), nil
}

// dispatch admits the request (or answers shed/draining) and waits out
// the waiter protocol. format selects a figure flight's rendering and
// is ignored otherwise.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, key string, exec func(<-chan struct{}) *result, deadline time.Duration, format string) {
	start := time.Now() //asmp:allow walltime latency observability; never reaches a response body
	defer func() {
		s.observeLatency(time.Since(start)) //asmp:allow walltime latency observability
	}()
	f, outcome := s.admit(key, exec)
	switch outcome {
	case shed:
		writeError(w, http.StatusTooManyRequests, "overloaded",
			"work queue full; retry after backoff", nil)
		return
	case refusedDraining:
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; not accepting new work", nil)
		return
	}
	timer := time.NewTimer(deadline) //asmp:allow walltime per-request wall deadline; it cancels work, never shapes results
	defer timer.Stop()
	select {
	case <-f.done:
		s.respond(w, f, format)
	case <-timer.C:
		// The timer and completion can be ready together (select picks
		// at random): prefer the finished result over 504-ing a response
		// that is already in hand.
		select {
		case <-f.done:
			s.respond(w, f, format)
			return
		default:
		}
		s.mu.Lock()
		s.counters.expired++
		s.mu.Unlock()
		if s.leave(f, reasonDeadline) {
			// Last waiter out cancels the execution; wait for the
			// worker to surface whatever completed (bounded: the run
			// aborts at its next event boundary) and attach it.
			<-f.done
			writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
				"deadline expired; execution cancelled, partial results attached if any",
				f.res.partial)
			return
		}
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"deadline expired; execution continues for other waiters", nil)
	case <-r.Context().Done():
		// Client gone; leave quietly (the last leaver cancels).
		s.leave(f, reasonAbandoned)
	}
}

// respond renders a finished flight for one waiter.
func (s *Server) respond(w http.ResponseWriter, f *flight, format string) {
	res := f.res
	if res.cancelled {
		// Only drain can cancel a flight that still has live waiters
		// (deadline/abandon cancellation happens when the LAST waiter
		// leaves, and that waiter responds on the timeout path).
		if f.reason == reasonDrain {
			writeError(w, http.StatusServiceUnavailable, "draining",
				"server drained before completion; partial results attached if any",
				res.partial)
			return
		}
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			"execution cancelled; partial results attached if any", res.partial)
		return
	}
	if res.errCode != "" {
		writeError(w, res.status, res.errCode, res.errMsg, nil)
		return
	}
	if res.figure != nil {
		w.Header().Set("Content-Type", ctText)
		body := res.figure.Txt
		if format == "csv" {
			body = res.figure.Csv
		}
		if _, err := io.WriteString(w, body); err != nil {
			_ = err // client gone
		}
		return
	}
	w.Header().Set("Content-Type", res.ctype)
	if _, err := w.Write(res.body); err != nil {
		_ = err // client gone
	}
}

// ---- control endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ctText)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ctText)
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ctJSON)
	if err := json.NewEncoder(w).Encode(s.StatsSnapshot()); err != nil {
		_ = err // client gone
	}
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ctJSON)
	resp := struct {
		Workloads []string `json:"workloads"`
	}{Workloads: workload.Names()}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		_ = err
	}
}

func (s *Server) handleFigures(w http.ResponseWriter, _ *http.Request) {
	type fig struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []fig
	for _, f := range figures.All() {
		out = append(out, fig{ID: f.ID, Title: f.Title})
	}
	w.Header().Set("Content-Type", ctJSON)
	resp := struct {
		Figures []fig `json:"figures"`
	}{Figures: out}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		_ = err
	}
}

// ---- run ----

// runRequest is the POST /v1/run body.
type runRequest struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`
	// DeadlineMs is the wall-clock deadline for this request; 0 means
	// the server default. Not part of the coalescing identity.
	DeadlineMs int64 `json:"deadlineMs"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	wl, err := workload.New(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	cfg, err := cpu.ParseConfig(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	pol, err := core.ParsePolicy(req.Policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	deadline, err := s.resolveDeadline(req.DeadlineMs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	spec := core.RunSpec{
		Workload: wl,
		Config:   cfg,
		Sched:    sched.Defaults(pol),
		Seed:     req.Seed,
	}
	// The coalescing key is the cell's own identity, the one its memo
	// and disk-cache entries are filed under; every registered workload
	// has one (TestEveryWorkloadHasCellKey).
	s.dispatch(w, r, core.CellKey(spec), s.runExec(spec), deadline, "")
}

// ---- sweep ----

// sweepRequest is the POST /v1/sweep body: asmp-sweep's flags as JSON
// (core.SweepSpec, decoded by the same function), with the CLI's
// defaults except runs, where 0 means 3.
type sweepRequest struct {
	core.SweepSpec
	// DeadlineMs is the wall-clock deadline; not part of the sweep's
	// identity.
	DeadlineMs int64 `json:"deadlineMs"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	if req.Runs == 0 {
		req.Runs = 3
	}
	exp, err := req.Experiment("")
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	deadline, err := s.resolveDeadline(req.DeadlineMs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	// Identical identities are the licence to coalesce: everything that
	// reaches a cell, normalised, and nothing that doesn't (deadline).
	s.dispatch(w, r, exp.Identity(), s.sweepExec(exp), deadline, "")
}

// ---- figure ----

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f, ok := figures.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown figure %q; GET /v1/figures lists them", id), nil)
		return
	}
	q := r.URL.Query()
	quick := false
	if v := q.Get("quick"); v != "" {
		var err error
		quick, err = strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("bad quick %q", v), nil)
			return
		}
	}
	seed := uint64(1)
	if v := q.Get("seed"); v != "" {
		var err error
		seed, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("bad seed %q", v), nil)
			return
		}
		if seed == 0 {
			seed = 1
		}
	}
	format := q.Get("format")
	if format == "" {
		format = "txt"
	}
	if format != "txt" && format != "csv" {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("bad format %q (txt|csv)", format), nil)
		return
	}
	var deadlineMs int64
	if v := q.Get("deadline_ms"); v != "" {
		var err error
		deadlineMs, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("bad deadline_ms %q", v), nil)
			return
		}
	}
	deadline, err := s.resolveDeadline(deadlineMs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), nil)
		return
	}
	// Format is NOT part of the key: one flight renders both, waiters
	// pick.
	key := fmt.Sprintf("figure|id=%s|quick=%t|seed=%d", id, quick, seed)
	opt := figures.Options{Quick: quick, Seed: seed}
	s.dispatch(w, r, key, s.figureExec(f, opt), deadline, format)
}

// ---- shared parsing ----

// decodeBody strictly decodes a JSON request body: unknown fields are
// an error (they are usually a misspelled knob, and a silently ignored
// knob would coalesce with the wrong identity).
func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
