package main

// The probes that write journals. They live apart from the rest so this
// file, like every journal-adjacent file, writes to disk only through
// internal/journal.

import (
	"fmt"
	"path/filepath"
	"time"

	"asmp/internal/core"
	"asmp/internal/journal"
	"asmp/internal/sched"
	"asmp/internal/workload"
)

// probeJournal times WriteCell, each append fsync'd, on a fresh journal.
func probeJournal(b *bench, m map[string]float64, _ int) (err error) {
	dir, err := b.newDir("journal")
	if err != nil {
		return err
	}
	spec, err := tpchSpec(b.seed)
	if err != nil {
		return err
	}
	res, err := core.ExecuteSafe(spec)
	if err != nil {
		return err
	}
	w, err := journal.Create(filepath.Join(dir, "probe.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	if err := w.WriteHeader(journal.Header{Tool: "asmp-bench", Workload: spec.Workload.Name(), BaseSeed: b.seed}); err != nil {
		return err
	}
	us := make([]float64, 200)
	for i := range us {
		c := journal.Cell{
			Config: spec.Config.String(), Run: i, Seed: spec.Seed,
			Metric: res.Metric, Value: journal.Float(res.Value), Higher: res.HigherIsBetter,
			Extras: journal.MakeExtras(res.Extras), Digest: res.Digest.String(),
		}
		us[i] = timeUs(func() { err = w.WriteCell(c) })
		if err != nil {
			return err
		}
	}
	m["journal.append_us"] = median(us)
	return nil
}

// inprocSweep runs sweep-sharded's experiment in this process on two
// workers, journaled and without a disk cache like the CLI op, and
// returns its wall time.
func (b *bench) inprocSweep(journalPath string) (time.Duration, error) {
	w, err := workload.New("tpch")
	if err != nil {
		return 0, err
	}
	core.SetResultCache(nil)
	core.ResetMemo()
	jw, err := journal.Create(journalPath)
	if err != nil {
		return 0, err
	}
	exp := core.Experiment{
		Name:     fmt.Sprintf("%s (%s scheduler, %d runs)", w.Name(), sched.PolicyNaive, b.p.sweepRuns),
		Workload: w,
		Runs:     b.p.sweepRuns,
		Sched:    sched.Defaults(sched.PolicyNaive),
		BaseSeed: b.seed,
		Workers:  2,
		Journal:  jw,
	}
	start := time.Now() //asmp:allow walltime benchmark timing
	out := exp.Run()
	d := time.Since(start) //asmp:allow walltime benchmark timing
	if err := jw.Close(); err != nil {
		return 0, err
	}
	if out.JournalErr != nil {
		return 0, out.JournalErr
	}
	if n := len(out.Errors()); n > 0 {
		return 0, fmt.Errorf("%d cells failed: %w", n, out.Errors()[0])
	}
	return d, nil
}
