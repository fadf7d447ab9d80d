package core

// This file bridges experiments to the run journal: building the
// identity header and per-cell records Run appends, and validating +
// replaying a parsed journal in Resume. The invariants:
//
//   - a journal is only ever resumed against the *same* sweep — same
//     Identity: workload, policy, configurations, repetition count,
//     base seed, fault plan, virtual-time limit and retry budget —
//     anything else is an error, never a silent mismatch;
//   - only successful cells are carried over; failed and missing cells
//     re-execute with their original derived seeds, so a resumed sweep's
//     Outcome is identical to an uninterrupted one.

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"

	"asmp/internal/cpu"
	"asmp/internal/digest"
	"asmp/internal/fault"
	"asmp/internal/journal"
	"asmp/internal/workload"
)

// JournalHeader returns the identity header this experiment writes to
// a fresh journal: the effective grid (defaults applied), the policy,
// the fault plan, the virtual-time limit and the retry budget.
func (e Experiment) JournalHeader() journal.Header {
	configs, runs, base := e.normalized()
	h := journal.Header{
		Name:     e.Name,
		Workload: e.Workload.Name(),
		Policy:   e.Sched.Policy.String(),
		Runs:     runs,
		BaseSeed: base,
		Retries:  max(e.Retries, 0),
	}
	for _, c := range configs {
		h.Configs = append(h.Configs, c.String())
	}
	if !e.Fault.Empty() {
		h.Fault = e.Fault.String()
	}
	if t := e.Limits.MaxVirtualTime; t > 0 {
		h.Timeout = fault.FormatDuration(t)
	}
	return h
}

// Identity renders which sweep this is: the journal header with its
// labels (tool, name) and checksum left out. Two experiments with
// equal identities run the same cells with the same seeds, limits and
// retries; a journal resumes only under its own identity, and
// asmp-serve coalesces sweeps by it. The scheduler knobs other than
// Policy, the limits other than MaxVirtualTime, and workload options
// beyond Name are not in it: no front end sets them on a journaled or
// served sweep, and the cell key (memoKey) pins them per cell.
func (e Experiment) Identity() string {
	b, err := json.Marshal(identityOf(e.JournalHeader()))
	if err != nil {
		panic(err) // strings, ints and a string slice always marshal
	}
	return string(b)
}

// identityOf strips h to the fields that name a sweep.
func identityOf(h journal.Header) journal.Header {
	h.Kind, h.V = journal.KindHeader, journal.Version
	h.Tool, h.Name, h.Sum = "", "", ""
	return h
}

// Grid returns the experiment's effective configuration list,
// repetition count and base seed with defaults applied — the identity
// journals record and internal/shard partitions.
func (e Experiment) Grid() (configs []cpu.Config, runs int, base uint64) {
	return e.normalized()
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
// experiment: any difference in Identity, named by the first differing
// header field's JSON key.
func (e Experiment) CheckHeader(h *journal.Header) error {
	got, want := reflect.ValueOf(identityOf(*h)), reflect.ValueOf(identityOf(e.JournalHeader()))
	for i := 0; i < got.NumField(); i++ {
		g, w := got.Field(i).Interface(), want.Field(i).Interface()
		if reflect.DeepEqual(g, w) {
			continue
		}
		key, _, _ := strings.Cut(got.Type().Field(i).Tag.Get("json"), ",")
		gj, _ := json.Marshal(g) // header fields always marshal
		wj, _ := json.Marshal(w)
		return fmt.Errorf("records a different sweep: %s is %s, this sweep has %s", key, gj, wj)
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
