package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asmp/internal/cpu"
	"asmp/internal/journal"
	"asmp/internal/workload"
)

func testConfigs(t *testing.T) []cpu.Config {
	t.Helper()
	return []cpu.Config{
		cpu.MustParseConfig("4f-0s/4"),
		cpu.MustParseConfig("2f-2s/8"),
		cpu.MustParseConfig("0f-4s/8"),
	}
}

// outcomesEqual compares two outcomes cell by cell: exact values,
// digests and summaries. It is deliberately strict — resume promises an
// identical outcome, not an approximately equal one.
func outcomesEqual(t *testing.T, got, want *Outcome) {
	t.Helper()
	if got.Metric != want.Metric || got.HigherIsBetter != want.HigherIsBetter {
		t.Errorf("metric (%q,%v) != (%q,%v)", got.Metric, got.HigherIsBetter, want.Metric, want.HigherIsBetter)
	}
	if len(got.PerConfig) != len(want.PerConfig) {
		t.Fatalf("%d configs != %d", len(got.PerConfig), len(want.PerConfig))
	}
	for i := range want.PerConfig {
		g, w := &got.PerConfig[i], &want.PerConfig[i]
		if g.Config != w.Config {
			t.Fatalf("config %d: %v != %v", i, g.Config, w.Config)
		}
		for r := range w.Values {
			if g.Values[r] != w.Values[r] {
				t.Errorf("%v run %d: value %v != %v", w.Config, r, g.Values[r], w.Values[r])
			}
			if g.Results[r].Digest != w.Results[r].Digest {
				t.Errorf("%v run %d: digest %v != %v", w.Config, r, g.Results[r].Digest, w.Results[r].Digest)
			}
		}
		if g.Summary != w.Summary {
			t.Errorf("%v: summary %+v != %+v", w.Config, g.Summary, w.Summary)
		}
	}
}

// cancelAfterWorkload behaves like powerProbe but closes the cancel
// channel at the start of its Nth invocation, simulating a SIGINT
// landing mid-sweep.
type cancelAfterWorkload struct {
	inner  powerProbe
	cancel chan struct{}
	after  int
	calls  int
}

func (w *cancelAfterWorkload) Name() string { return w.inner.Name() }

func (w *cancelAfterWorkload) Run(pl *workload.Platform) workload.Result {
	w.calls++
	if w.calls == w.after {
		close(w.cancel)
	}
	return w.inner.Run(pl)
}

func TestExperimentJournalResumeIsIdentical(t *testing.T) {
	configs := testConfigs(t)
	exp := Experiment{
		Name:     "resume test",
		Workload: powerProbe{asymNoise: 0.2},
		Configs:  configs,
		Runs:     2,
		BaseSeed: 7,
	}
	want := exp.Run() // uninterrupted reference, no journal

	// Same sweep, cancelled mid-way by a SIGINT stand-in, journaling.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	interrupted := exp
	interrupted.Workload = &cancelAfterWorkload{inner: powerProbe{asymNoise: 0.2}, cancel: cancel, after: 3}
	interrupted.Cancel = cancel
	interrupted.Journal = w
	interrupted.Sequential = true
	partial := interrupted.Run()
	w.Close()

	cancelled := 0
	for _, cr := range partial.PerConfig {
		cancelled += cr.Cancelled()
	}
	if cancelled == 0 {
		t.Fatal("mid-sweep cancel produced no cancelled cells")
	}

	// Simulate the crash tail a kill can leave behind.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"cell","cfg":1,"ru`)
	f.Close()

	log, w2, err := journal.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Cells) >= len(configs)*2 {
		t.Fatalf("journal already complete (%d cells); cancel recorded results it should not have", len(log.Cells))
	}
	resumed := exp // the real workload, no cancel
	resumed.Journal = w2
	got, err := resumed.Resume(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	outcomesEqual(t, got, want)

	// The journal is now complete: a second resume re-executes nothing
	// and still reproduces the outcome.
	log2, w3, err := journal.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log2.Cells) != len(configs)*2 {
		t.Fatalf("journal has %d cells after resume, want %d", len(log2.Cells), len(configs)*2)
	}
	again := exp
	again.Journal = w3
	got2, err := again.Resume(log2)
	if err != nil {
		t.Fatal(err)
	}
	w3.Close()
	outcomesEqual(t, got2, want)
}

func TestResumeRejectsMismatchedSweep(t *testing.T) {
	configs := testConfigs(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{Workload: powerProbe{}, Configs: configs, Runs: 2, BaseSeed: 7, Journal: w}
	exp.Run()
	w.Close()

	cases := []struct {
		name   string
		mutate func(*Experiment)
		want   string
	}{
		{"base seed", func(e *Experiment) { e.BaseSeed = 8 }, "baseSeed is 7, this sweep has 8"},
		{"runs", func(e *Experiment) { e.Runs = 3 }, "runs"},
		{"configs", func(e *Experiment) { e.Configs = configs[:2] }, "configs is"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log, err := journal.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			other := exp
			other.Journal = nil
			tc.mutate(&other)
			_, err = other.Resume(log)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("mismatched %s accepted: err = %v", tc.name, err)
			}
		})
	}
}

func TestResumeReexecutesFailedCells(t *testing.T) {
	// Forge a journal whose only cell is a recorded failure: resume must
	// re-run it (and every missing cell) rather than resurrect the error.
	configs := testConfigs(t)[:1]
	exp := Experiment{Workload: powerProbe{}, Configs: configs, Runs: 1, BaseSeed: 7}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, base := exp.normalized()
	if err := w.WriteHeader(exp.JournalHeader()); err != nil {
		t.Fatal(err)
	}
	err = w.WriteCell(journal.Cell{
		Config: configs[0].String(), Cfg: 0, Run: 0,
		Seed: RetrySeed(base, 0, 0, 0), Err: "core: run failed: injected",
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	log, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.Resume(log)
	if err != nil {
		t.Fatal(err)
	}
	if out.PerConfig[0].Errs[0] != nil {
		t.Errorf("failed cell not re-executed: %v", out.PerConfig[0].Errs[0])
	}
	if out.PerConfig[0].Results[0].Digest == 0 {
		t.Error("re-executed cell has no digest")
	}
}

func TestExperimentPreCancelled(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	exp := Experiment{
		Workload: powerProbe{},
		Configs:  testConfigs(t)[:2],
		Runs:     2,
		Cancel:   cancel,
	}
	out := exp.Run()
	for _, cr := range out.PerConfig {
		if cr.Cancelled() != 2 {
			t.Errorf("%v: %d cancelled runs, want 2", cr.Config, cr.Cancelled())
		}
		for _, err := range cr.Errs {
			if !errors.Is(err, ErrCancelled) {
				t.Errorf("%v: err = %v, want ErrCancelled", cr.Config, err)
			}
		}
	}
	if len(out.Errors()) != 4 {
		t.Errorf("Errors() = %d, want 4", len(out.Errors()))
	}
}

// TestResumeLastRecordWinsOnFailure is the regression for the stale
// seeding bug: the journal may hold a success for a cell *followed* by
// a failure (a later attempt that went bad before the crash). Log.Cell
// documents last-record-wins, so seeding must evict the stale success
// and re-execute the cell — the old code skipped failure records
// entirely and resurrected it.
func TestResumeLastRecordWinsOnFailure(t *testing.T) {
	configs := testConfigs(t)[:1]
	exp := Experiment{Workload: powerProbe{}, Configs: configs, Runs: 1, BaseSeed: 7}
	want := exp.Run()

	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, base := exp.normalized()
	if err := w.WriteHeader(exp.JournalHeader()); err != nil {
		t.Fatal(err)
	}
	// A success record with a deliberately wrong value: if resume trusts
	// it, the outcome is visibly poisoned.
	err = w.WriteCell(journal.Cell{
		Config: configs[0].String(), Cfg: 0, Run: 0, Attempt: 0,
		Seed:   RetrySeed(base, 0, 0, 0),
		Metric: "throughput", Value: 9999, Higher: true,
		Digest: "00000000deadbeef",
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...superseded by a failed later attempt.
	err = w.WriteCell(journal.Cell{
		Config: configs[0].String(), Cfg: 0, Run: 0, Attempt: 1,
		Seed: RetrySeed(base, 0, 0, 1), Err: "core: run failed: injected",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.Resume(log)
	if err != nil {
		t.Fatal(err)
	}
	if out.PerConfig[0].Values[0] == 9999 {
		t.Fatal("stale superseded success resurrected into the outcome")
	}
	outcomesEqual(t, out, want)
}

// extrasProbe is powerProbe plus an Extras map, for aliasing tests.
type extrasProbe struct{ powerProbe }

func (w extrasProbe) Name() string { return "extras-probe" }

func (w extrasProbe) Run(pl *workload.Platform) workload.Result {
	res := w.powerProbe.Run(pl)
	res.Extras = map[string]float64{"p95": res.Value * 2}
	return res
}

// TestResumeCarriedExtrasAreCopies is the regression for the aliasing
// bug: results carried over from the journal used to share their Extras
// map with the parsed Log, so a caller mutating the Outcome silently
// rewrote the Log (and vice versa). Resume must hand out fresh maps —
// the same cloneResult discipline the memo cache follows.
func TestResumeCarriedExtrasAreCopies(t *testing.T) {
	configs := testConfigs(t)[:1]
	exp := Experiment{Workload: extrasProbe{}, Configs: configs, Runs: 1, BaseSeed: 7}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	journaled := exp
	journaled.Journal = w
	ref := journaled.Run()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantP95 := ref.PerConfig[0].Results[0].Extras["p95"]
	if wantP95 == 0 {
		t.Fatal("test setup: probe produced no p95 extra")
	}

	log, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exp.Resume(log)
	if err != nil {
		t.Fatal(err)
	}
	got := out.PerConfig[0].Results[0].Extras
	if got["p95"] != wantP95 {
		t.Fatalf("carried p95 = %v, want %v", got["p95"], wantP95)
	}

	// Mutating the outcome must not reach the parsed Log...
	got["p95"] = -1
	if v := float64(log.Cell(0, 0).Extras["p95"]); v != wantP95 {
		t.Errorf("outcome mutation reached the Log: p95 = %v, want %v", v, wantP95)
	}
	// ...and a second resume from the same Log must still see the
	// journal's value.
	out2, err := exp.Resume(log)
	if err != nil {
		t.Fatal(err)
	}
	if v := out2.PerConfig[0].Results[0].Extras["p95"]; v != wantP95 {
		t.Errorf("second resume sees mutated extras: p95 = %v, want %v", v, wantP95)
	}
}

// TestResumeRefusalsAreTyped: every identity refusal must be a
// *ResumeRefusedError, so the crash-matrix property test (and any
// caller) can separate "journal belongs to a different sweep" from
// real failures with errors.As.
func TestResumeRefusalsAreTyped(t *testing.T) {
	configs := testConfigs(t)[:1]
	exp := Experiment{Workload: powerProbe{}, Configs: configs, Runs: 1, BaseSeed: 7}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, base := exp.normalized()
	if err := w.WriteHeader(exp.JournalHeader()); err != nil {
		t.Fatal(err)
	}
	// A success record with an unparseable digest.
	err = w.WriteCell(journal.Cell{
		Config: configs[0].String(), Cfg: 0, Run: 0,
		Seed:   RetrySeed(base, 0, 0, 0),
		Metric: "throughput", Value: 1, Digest: "not-a-digest",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func() error
	}{
		{"bad digest", func() error { _, err := exp.Resume(log); return err }},
		{"wrong seed", func() error {
			other := exp
			other.BaseSeed = 8
			_, err := other.Resume(log)
			return err
		}},
		{"cell outside sweep", func() error {
			bigger := exp
			bigger.Runs = 1
			clipped := *log
			clipped.Cells = append([]journal.Cell(nil), log.Cells...)
			clipped.Cells[0].Run = 5
			_, err := bigger.Resume(&clipped)
			return err
		}},
		{"no header", func() error {
			headless := *log
			headless.Header = nil
			_, err := exp.Resume(&headless)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("refusal did not fire")
			}
			var rr *ResumeRefusedError
			if !errors.As(err, &rr) {
				t.Fatalf("err = %T (%v), want *ResumeRefusedError", err, err)
			}
			if rr.Path != log.Path {
				t.Errorf("refusal path = %q, want %q", rr.Path, log.Path)
			}
		})
	}
}

// TestJournalFailureSurfacesOnOutcome: a failing journal must never
// abort a sweep — the Writer is sticky, the cells all run — but the
// failure has to surface exactly once, via Outcome.JournalErr, so a
// caller never trusts (or resumes from) an incomplete journal.
func TestJournalFailureSurfacesOnOutcome(t *testing.T) {
	dir := t.TempDir()

	// A healthy journal leaves JournalErr nil.
	good, err := journal.Create(filepath.Join(dir, "good.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{Workload: powerProbe{}, Configs: testConfigs(t), Runs: 2}
	exp.Journal = good
	if o := exp.Run(); o.JournalErr != nil {
		t.Fatalf("healthy journal: JournalErr = %v", o.JournalErr)
	}
	if err := good.Close(); err != nil {
		t.Fatal(err)
	}

	// Closing the writer up front makes every append fail, starting
	// with the header.
	bad, err := journal.Create(filepath.Join(dir, "bad.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Close(); err != nil {
		t.Fatal(err)
	}
	exp.Journal = bad
	o := exp.Run()
	if o.JournalErr == nil {
		t.Fatal("JournalErr = nil after appends to a closed journal")
	}
	if len(o.PerConfig) != len(testConfigs(t)) {
		t.Fatalf("sweep incomplete: %d configs", len(o.PerConfig))
	}
	if n := len(o.Errors()); n != 0 {
		t.Errorf("journal failure leaked into run errors: %v", o.Errors())
	}
}
