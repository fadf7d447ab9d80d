package shard

// The supervisor: one goroutine per shard spawns its workers and
// checks the records they stream; the calling goroutine appends the
// accepted records to the sweep's journal in grid order as the prefix
// fills. A worker that dies, tears a line or sends a record it could
// not have produced is respawned over its undelivered remainder with
// capped exponential backoff. A shard that exhausts its retry budget
// degrades its undelivered cells to typed ERR records naming it, and
// the sweep completes.

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/journal"
)

// The delay before a shard's n-th respawn is minBackoff << (n-1),
// capped at maxBackoff.
const (
	minBackoff = 50 * time.Millisecond
	maxBackoff = time.Second
)

// Options configures Supervise. Run is required.
type Options struct {
	// Run spawns one worker attempt (ExecRunner in production).
	Run Runner
	// Retries is the per-shard respawn budget beyond the first attempt.
	// Exhausting it degrades the shard's undelivered cells to ERR.
	Retries int
	// Cancel, when non-nil, stops supervision when closed: running
	// workers are left to notice it themselves (they share the signal),
	// and no further respawns happen.
	Cancel <-chan struct{}
	// Logf, when non-nil, receives supervision events (respawns and
	// budget exhaustion).
	Logf func(format string, args ...any)
	// Sleep replaces the inter-attempt delay in tests; nil means real
	// sleeping (cancellable by Cancel).
	Sleep func(d time.Duration)
}

// ShardOutcome reports how one shard's supervision went.
type ShardOutcome struct {
	// Range is the shard's slice of the grid; respawns cover its
	// undelivered suffix.
	Range core.ShardRange
	// Attempts is how many workers were spawned (0 when no cell in the
	// range was pending).
	Attempts int
	// Err is nil when every pending cell in the range was delivered;
	// otherwise the last attempt's error (budget exhausted or
	// cancelled).
	Err error
}

// Supervise runs exp's pending cells on shards worker processes and
// appends their records to exp.Journal, which it owns. A nil log starts
// a fresh sweep, writing the header first as Run does; a log from
// journal.Resume continues that journal with the cells Resume would
// execute (core.Experiment.Pending), split into shards ranges. Records
// are appended in grid order as the prefix fills, so the journal holds
// the bytes a sequential unsharded sweep (or resume) would write.
//
// The Outcome replays every record the supervisor accepted, with
// JournalErr set when an append failed. A log that does not belong to
// exp is refused with its typed error; a cancelled supervision returns
// an error matching core.ErrCancelled, after appending the prefix that
// was complete.
func Supervise(exp core.Experiment, log *journal.Log, shards int, o Options) (*core.Outcome, []ShardOutcome, error) {
	jw := exp.Journal
	if jw == nil || o.Run == nil || shards < 1 {
		panic("shard: Supervise needs a journal, a Runner and at least one shard")
	}
	o.Retries = max(o.Retries, 0)
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Sleep == nil {
		o.Sleep = func(d time.Duration) {
			t := time.NewTimer(d) //asmp:allow walltime supervision backoff, never simulation state
			defer t.Stop()
			select {
			case <-t.C:
			case <-o.Cancel:
			}
		}
	}
	var werr error
	if log == nil {
		h := exp.JournalHeader()
		werr = jw.WriteHeader(h)
		log = &journal.Log{Path: jw.Path(), Header: &h}
	}
	order, err := exp.Pending(log)
	if err != nil {
		return nil, nil, err
	}
	configs, runs, _ := exp.Grid()
	n := len(configs) * runs
	s := &supervisor{
		exp:     exp,
		runs:    runs,
		pending: make([]bool, n),
		slots:   make([]*journal.Cell, n),
		wake:    make(chan struct{}, 1),
	}
	for _, idx := range order {
		s.pending[idx] = true
	}

	outs := make([]ShardOutcome, shards)
	var wg sync.WaitGroup
	for i, c := range Partition(len(order), shards) {
		r := core.ShardRange{Index: i, Of: shards, Lo: n, Hi: n}
		if c.Lo < c.Hi {
			r.Lo, r.Hi = order[c.Lo], order[c.Hi-1]+1
		}
		wg.Add(1)
		go func(i int, r core.ShardRange) {
			defer wg.Done()
			outs[i] = s.supervise(r, o)
		}(i, r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	// Append each cell once every cell before it is in; the final pass
	// after the shards finish picks up the degraded remainders.
	mem := &journal.Log{Path: log.Path, Header: log.Header, Cells: append([]journal.Cell(nil), log.Cells...)}
	next := 0
	for running := true; running; {
		select {
		case <-s.wake:
		case <-done:
			running = false
		}
		for ; next < len(order); next++ {
			c := s.slot(order[next])
			if c == nil {
				break
			}
			if werr == nil {
				werr = jw.WriteCell(*c)
			}
			mem.Cells = append(mem.Cells, *c)
		}
	}
	if next < len(order) {
		// Only a cancelled shard leaves cells neither delivered nor
		// degraded.
		for _, so := range outs {
			if cancelled(so.Err) {
				return nil, outs, so.Err
			}
		}
		return nil, outs, fmt.Errorf("shard: cell %d was never delivered", order[next])
	}
	out, err := exp.Replay(mem)
	if err != nil {
		return nil, outs, err
	}
	out.JournalErr = werr
	return out, outs, nil
}

// supervisor is the state Supervise's shard goroutines fill and its
// appender drains.
type supervisor struct {
	exp  core.Experiment
	runs int
	// pending marks the cells this supervision appends.
	pending []bool
	// wake nudges the appender after a slot fills; one buffered value
	// is enough, since the appender drains every ready slot per wake.
	wake chan struct{}

	mu sync.Mutex
	// slots holds each pending cell's accepted record, by flattened
	// index; a nil slot is still undelivered.
	slots []*journal.Cell
}

// slot returns the accepted record for cell idx, or nil.
func (s *supervisor) slot(idx int) *journal.Cell {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots[idx]
}

// fill stores c as cell idx's record unless the cell is not pending or
// already has one — a duplicate is dropped — and wakes the appender.
func (s *supervisor) fill(idx int, c *journal.Cell) {
	s.mu.Lock()
	fresh := s.pending[idx] && s.slots[idx] == nil
	if fresh {
		s.slots[idx] = c
	}
	s.mu.Unlock()
	if fresh {
		s.notify()
	}
}

// notify wakes the appender without blocking.
func (s *supervisor) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// undelivered returns the lowest pending cell in r without a record
// (r.Hi if none) and how many such cells remain.
func (s *supervisor) undelivered(r core.ShardRange) (lo, left int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo = r.Hi
	for idx := r.Hi - 1; idx >= r.Lo; idx-- {
		if s.pending[idx] && s.slots[idx] == nil {
			lo = idx
			left++
		}
	}
	return lo, left
}

// supervise drives one shard through its attempt budget.
func (s *supervisor) supervise(r core.ShardRange, o Options) ShardOutcome {
	out := ShardOutcome{Range: r}
	var err error
	for {
		lo, left := s.undelivered(r)
		if left == 0 {
			// Every pending cell arrived. This also absolves the last
			// attempt's failure: a worker killed after its final record
			// completed the shard, however it exited.
			out.Err = nil
			return out
		}
		if out.Attempts > 0 {
			if err == nil {
				err = fmt.Errorf("shard %s: worker exited with %d cell(s) undelivered", r, left)
			}
			out.Err = err
			if cancelled(err) {
				return out
			}
			if o.cancelRequested() {
				// The cancel fired but the attempt's error is untyped (e.g.
				// a worker that died to the shared signal without exiting
				// 130): type the outcome so the caller still sees the
				// cancellation.
				out.Err = fmt.Errorf("shard %s: %w (last attempt: %v)", r, core.ErrCancelled, err)
				return out
			}
			if out.Attempts > o.Retries {
				o.Logf("shard %s: retry budget exhausted after %d attempt(s): %v", r, out.Attempts, err)
				s.degrade(r, err)
				return out
			}
			d := minBackoff << (out.Attempts - 1)
			if d > maxBackoff || d <= 0 {
				d = maxBackoff
			}
			o.Logf("shard %s: attempt %d/%d from cell %d after %v: %v", r, out.Attempts+1, o.Retries+1, lo, d, err)
			o.Sleep(d)
		}
		if o.cancelRequested() {
			out.Err = fmt.Errorf("shard %s: %w", r, core.ErrCancelled)
			return out
		}
		out.Attempts++
		err = s.attempt(o.Run, core.ShardRange{Index: r.Index, Of: r.Of, Lo: lo, Hi: r.Hi})
	}
}

// attempt runs one worker over r and returns why its stream cannot be
// trusted to be complete: a cancellation, a refused line, the worker's
// own failure or a torn final line, in that order.
func (s *supervisor) attempt(run Runner, r core.ShardRange) error {
	st := &stream{s: s, r: r}
	err := run(r, st)
	switch {
	case cancelled(err):
		return err
	case st.err != nil:
		return st.err
	case err != nil:
		return err
	case len(st.buf) > 0:
		return fmt.Errorf("shard %s: worker stream ends in a torn line", r)
	}
	return nil
}

// degrade fills r's undelivered pending cells with degradedCell records.
func (s *supervisor) degrade(r core.ShardRange, cause error) {
	configs, _, base := s.exp.Grid()
	s.mu.Lock()
	for idx := r.Lo; idx < r.Hi; idx++ {
		if s.pending[idx] && s.slots[idx] == nil {
			s.slots[idx] = degradedCell(r, cause, configs, s.runs, base, idx)
		}
	}
	s.mu.Unlock()
	s.notify()
}

// degradedCell synthesizes the ERR record for a cell its shard never
// delivered: seed and indices are the sweep's own (so validation
// passes), and the error names the shard and why it gave up.
func degradedCell(r core.ShardRange, cause error, configs []cpu.Config, runs int, base uint64, idx int) *journal.Cell {
	cfg, run := idx/runs, idx%runs
	return &journal.Cell{
		Config: configs[cfg].String(),
		Cfg:    cfg,
		Run:    run,
		Seed:   core.RunSeed(base, cfg, run),
		Err:    fmt.Sprintf("shard %s: failed: %v", r, cause),
	}
}

// stream receives one worker attempt's stdout. It splits the lines,
// checks each one and files accepted cells with the supervisor. The
// first refused line fails every later Write, which ends os/exec's
// copy and closes the pipe, so the worker dies at its next write.
type stream struct {
	s      *supervisor
	r      core.ShardRange
	header bool
	// buf holds the bytes after the last newline: a partial line.
	buf []byte
	err error
}

// Write implements io.Writer.
func (st *stream) Write(p []byte) (int, error) {
	if st.err != nil {
		return 0, st.err
	}
	st.buf = append(st.buf, p...)
	for {
		i := bytes.IndexByte(st.buf, '\n')
		if i < 0 {
			break
		}
		if err := st.line(st.buf[:i]); err != nil {
			st.err = fmt.Errorf("shard %s: worker stream: %w", st.r, err)
			return 0, st.err
		}
		st.buf = st.buf[i+1:]
	}
	if len(st.buf) > journal.MaxLine {
		st.err = fmt.Errorf("shard %s: worker stream: line exceeds %d bytes", st.r, journal.MaxLine)
		return 0, st.err
	}
	return len(p), nil
}

// line checks one record: the stream opens with this sweep's header,
// and every later line is a cell the sweep derives, inside the
// attempt's range.
func (st *stream) line(line []byte) error {
	rec, err := journal.ParseLine(line)
	if err != nil {
		return err
	}
	if !st.header {
		h, ok := rec.(*journal.Header)
		if !ok {
			return fmt.Errorf("stream opens with a %T record, not the header", rec)
		}
		st.header = true
		return st.s.exp.CheckHeader(h)
	}
	c, ok := rec.(*journal.Cell)
	if !ok {
		return fmt.Errorf("unexpected %T record", rec)
	}
	if err := st.s.exp.CheckCell(c); err != nil {
		return err
	}
	idx := c.Cfg*st.s.runs + c.Run
	if !st.r.Contains(idx) {
		return fmt.Errorf("cell (%d,%d) outside the attempt's range %s", c.Cfg, c.Run, st.r)
	}
	st.s.fill(idx, c)
	return nil
}

// cancelRequested reports whether the supervisor's cancel fired.
func (o *Options) cancelRequested() bool {
	if o.Cancel == nil {
		return false
	}
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}
