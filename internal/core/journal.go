package core

// This file bridges experiments to the run journal: building the
// identity header and per-cell records Run appends, and validating +
// replaying a parsed journal in Resume. The invariants:
//
//   - a journal is only ever resumed against the *same* sweep — same
//     workload, policy, configurations, repetition count, base seed and
//     fault plan — anything else is an error, never a silent mismatch;
//   - only successful cells are carried over; failed and missing cells
//     re-execute with their original derived seeds, so a resumed sweep's
//     Outcome is identical to an uninterrupted one.

import (
	"errors"
	"fmt"

	"asmp/internal/cpu"
	"asmp/internal/digest"
	"asmp/internal/journal"
	"asmp/internal/workload"
)

// journalHeader builds the identity record for this experiment.
func (e Experiment) journalHeader(configs []cpu.Config, runs int, base uint64) journal.Header {
	h := journal.Header{
		Name:     e.Name,
		Workload: e.Workload.Name(),
		Policy:   e.Sched.Policy.String(),
		Runs:     runs,
		BaseSeed: base,
	}
	for _, c := range configs {
		h.Configs = append(h.Configs, c.String())
	}
	if !e.Fault.Empty() {
		h.Fault = e.Fault.String()
	}
	return h
}

// Grid returns the experiment's effective configuration list,
// repetition count and base seed with defaults applied — the identity
// journals record and internal/shard partitions.
func (e Experiment) Grid() (configs []cpu.Config, runs int, base uint64) {
	return e.normalized()
}

// JournalHeader returns the identity header this experiment writes to
// a fresh journal.
func (e Experiment) JournalHeader() journal.Header {
	return e.journalHeader(e.normalized())
}

// journalCell builds the record for one completed cell.
func journalCell(cl cellKey, cfg cpu.Config, base uint64, attempt int, res workload.Result, err error) journal.Cell {
	c := journal.Cell{
		Config:  cfg.String(),
		Cfg:     cl.cfg,
		Run:     cl.run,
		Attempt: attempt,
		Seed:    RetrySeed(base, cl.cfg, cl.run, attempt),
	}
	if err != nil {
		c.Err = err.Error()
		return c
	}
	c.Metric = res.Metric
	c.Value = journal.Float(res.Value)
	c.Higher = res.HigherIsBetter
	// MakeExtras copies: the journal record must never alias the
	// caller's (and possibly the memo cache's) Extras map.
	c.Extras = journal.MakeExtras(res.Extras)
	c.Digest = res.Digest.String()
	return c
}

// ResumeRefusedError is the typed refusal Experiment.Resume returns
// when a journal cannot be trusted to extend this sweep: wrong
// identity (workload, policy, configs, seeds), a missing header, or
// records the sweep could not have produced. Together with
// journal.DamagedError it closes the crash-consistency contract
// (DESIGN.md §9): a resume either reproduces the uninterrupted sweep's
// Outcome byte-identically or fails with one of these two types —
// never a silently different result.
type ResumeRefusedError struct {
	// Path is the journal file.
	Path string
	// Msg is the complete message (Error returns it verbatim).
	Msg string
}

func (e *ResumeRefusedError) Error() string { return e.Msg }

// refuse builds a ResumeRefusedError for a journal.
func refuse(path, format string, args ...any) error {
	return &ResumeRefusedError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Resume completes the sweep recorded in log: cells the journal holds a
// successful result for are carried over verbatim; everything else
// (missing, failed, or interrupted cells) is re-executed with the same
// derived seeds. Because runs are pure functions of their seeds, the
// returned Outcome — and any report rendered from it — is identical to
// the one an uninterrupted sweep would have produced.
//
// The journal must belong to this experiment: its header and every cell
// record are validated against the experiment's identity first. New
// records are appended through e.Journal as usual (pass the Writer that
// journal.Resume returned).
func (e Experiment) Resume(log *journal.Log) (*Outcome, error) {
	seeded, err := e.seeded(log)
	if err != nil {
		return nil, err
	}
	return e.run(seeded, false), nil
}

// Pending validates log against this experiment and returns the
// flattened indices (cfg*runs + run, ascending) of the cells Resume
// would execute: those the journal holds no successful last record for.
// A sharded resume (internal/shard) splits exactly these across its
// workers.
func (e Experiment) Pending(log *journal.Log) ([]int, error) {
	seeded, err := e.seeded(log)
	if err != nil {
		return nil, err
	}
	configs, runs, _ := e.normalized()
	var pending []int
	for idx := 0; idx < len(configs)*runs; idx++ {
		if _, ok := seeded[cellKey{idx / runs, idx % runs}]; !ok {
			pending = append(pending, idx)
		}
	}
	return pending, nil
}

// seeded validates log and returns the results Resume carries over:
// each cell's last record, when that record is a success.
func (e Experiment) seeded(log *journal.Log) (map[cellKey]workload.Result, error) {
	if e.Workload == nil {
		panic("core: experiment without workload")
	}
	if err := e.validateJournal(log); err != nil {
		return nil, err
	}
	seeded := make(map[cellKey]workload.Result, len(log.Cells))
	for i := range log.Cells {
		c := &log.Cells[i]
		key := cellKey{c.Cfg, c.Run}
		if c.Err != "" {
			// Last record wins, exactly as Log.Cell documents: a failure
			// that supersedes an earlier success evicts it, so the cell
			// re-executes instead of resurrecting the stale result.
			delete(seeded, key)
			continue
		}
		d, err := digest.Parse(c.Digest)
		if err != nil {
			return nil, refuse(log.Path, "core: journal %s: cell (%d,%d) has bad digest %q: %v",
				log.Path, c.Cfg, c.Run, c.Digest, err)
		}
		seeded[key] = workload.Result{
			Metric:         c.Metric,
			Value:          float64(c.Value),
			HigherIsBetter: c.Higher,
			// Floats copies: a caller mutating the Outcome's extras must
			// never reach the parsed Log, nor vice versa — the same
			// defensive-copy discipline as core.cloneResult.
			Extras: c.Extras.Floats(),
			Digest: d,
		}
	}
	return seeded, nil
}

// validateJournal checks that log records this experiment and nothing
// else.
func (e Experiment) validateJournal(log *journal.Log) error {
	if log.Header == nil {
		return refuse(log.Path, "core: journal %s has no header; cannot verify it belongs to this sweep", log.Path)
	}
	if err := e.CheckHeader(log.Header); err != nil {
		return refuse(log.Path, "core: journal %s %v", log.Path, err)
	}
	for i := range log.Cells {
		if err := e.CheckCell(&log.Cells[i]); err != nil {
			return refuse(log.Path, "core: journal %s: %v", log.Path, err)
		}
	}
	return nil
}

// CheckHeader reports whether h records a different sweep than this
// experiment: workload, policy, runs, base seed, fault plan or configs.
func (e Experiment) CheckHeader(h *journal.Header) error {
	configs, runs, base := e.normalized()
	mismatch := func(field, got, want string) error {
		return fmt.Errorf("records a different sweep: %s is %s, this sweep has %s", field, got, want)
	}
	if h.Workload != e.Workload.Name() {
		return mismatch("workload", h.Workload, e.Workload.Name())
	}
	if h.Policy != e.Sched.Policy.String() {
		return mismatch("policy", h.Policy, e.Sched.Policy.String())
	}
	if h.Runs != runs {
		return mismatch("runs", fmt.Sprint(h.Runs), fmt.Sprint(runs))
	}
	if h.BaseSeed != base {
		return mismatch("base seed", fmt.Sprint(h.BaseSeed), fmt.Sprint(base))
	}
	faultStr := ""
	if !e.Fault.Empty() {
		faultStr = e.Fault.String()
	}
	if h.Fault != faultStr {
		return mismatch("fault plan", fmt.Sprintf("%q", h.Fault), fmt.Sprintf("%q", faultStr))
	}
	if len(h.Configs) != len(configs) {
		return mismatch("config count", fmt.Sprint(len(h.Configs)), fmt.Sprint(len(configs)))
	}
	for i, c := range configs {
		if h.Configs[i] != c.String() {
			return mismatch(fmt.Sprintf("config %d", i), h.Configs[i], c.String())
		}
	}
	return nil
}

// CheckCell reports whether c is a record this experiment could not
// have produced: a cell outside the grid, a config string that is not
// the cell's, or a seed other than the one RetrySeed derives for the
// recorded attempt.
func (e Experiment) CheckCell(c *journal.Cell) error {
	configs, runs, base := e.normalized()
	if c.Cfg < 0 || c.Cfg >= len(configs) || c.Run < 0 || c.Run >= runs {
		return fmt.Errorf("cell (%d,%d) outside the %d×%d sweep", c.Cfg, c.Run, len(configs), runs)
	}
	if c.Config != configs[c.Cfg].String() {
		return fmt.Errorf("cell (%d,%d) records config %s, sweep has %s", c.Cfg, c.Run, c.Config, configs[c.Cfg])
	}
	if want := RetrySeed(base, c.Cfg, c.Run, c.Attempt); c.Seed != want {
		return fmt.Errorf("cell (%d,%d) attempt %d used seed %d, sweep derives %d", c.Cfg, c.Run, c.Attempt, c.Seed, want)
	}
	return nil
}

// Replay reconstructs the Outcome a complete journal records without
// executing anything: successes are carried over verbatim, failures
// become errors with the recorded message. Because assemble is shared
// with run, a replayed Outcome renders byte-identically to the live
// sweep's — the property a sharded sweep (internal/shard) relies on to
// report from the records its supervisor appended.
//
// The journal must belong to this experiment and must hold a record
// for every cell; an incomplete journal is refused (use Resume to
// finish it instead).
func (e Experiment) Replay(log *journal.Log) (*Outcome, error) {
	if e.Workload == nil {
		panic("core: experiment without workload")
	}
	if err := e.validateJournal(log); err != nil {
		return nil, err
	}
	configs, runs, _ := e.normalized()
	n := len(configs) * runs
	results := make([]workload.Result, n)
	errs := make([]error, n)
	have := make([]bool, n)
	for i := range log.Cells {
		c := &log.Cells[i]
		idx := c.Cfg*runs + c.Run
		// Last record wins, exactly as Resume: a later failure evicts an
		// earlier success and vice versa.
		have[idx] = true
		if c.Err != "" {
			errs[idx] = errors.New(c.Err)
			results[idx] = workload.Result{}
			continue
		}
		d, err := digest.Parse(c.Digest)
		if err != nil {
			return nil, refuse(log.Path, "core: journal %s: cell (%d,%d) has bad digest %q: %v",
				log.Path, c.Cfg, c.Run, c.Digest, err)
		}
		errs[idx] = nil
		results[idx] = workload.Result{
			Metric:         c.Metric,
			Value:          float64(c.Value),
			HigherIsBetter: c.Higher,
			Extras:         c.Extras.Floats(),
			Digest:         d,
		}
	}
	for idx, ok := range have {
		if !ok {
			return nil, refuse(log.Path, "core: journal %s is incomplete: cell (%d,%d) has no record; replay never executes — use resume to finish the sweep",
				log.Path, idx/runs, idx%runs)
		}
	}
	return assemble(e.Name, configs, runs, results, errs, nil), nil
}
