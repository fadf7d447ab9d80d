package shard

// Unit tests for the partitioner and the supervisor — byte identity
// across shard counts, respawns, refused stream records, budget
// exhaustion, cancellation and sharded resume — all with in-process
// runners. The subprocess chaos harness (SIGKILL at sampled bytes)
// lives in chaos_test.go.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"asmp/internal/core"
	"asmp/internal/faultio"
	"asmp/internal/journal"
)

func testExperiment(t *testing.T) core.Experiment {
	t.Helper()
	exp, err := chaosExperiment()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// referenceJournal runs the unsharded sweep sequentially (so cell
// records land in flattened order, exactly as the supervisor appends
// them) and returns the journal bytes a sharded sweep must reproduce.
func referenceJournal(t *testing.T, exp core.Experiment, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, "ref.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := exp
	ref.Sequential = true
	ref.Journal = w
	if out := ref.Run(); out.JournalErr != nil {
		t.Fatalf("reference run: %v", out.JournalErr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// inProcess returns a Runner that executes shards in this process;
// resumeFrom is the journal a resuming worker reads ("" for fresh).
func inProcess(exp core.Experiment, resumeFrom string) Runner {
	return func(r core.ShardRange, stdout io.Writer) error {
		return Worker(exp, r, resumeFrom, stdout, nil)
	}
}

// noSleep silences supervision backoff in tests.
func noSleep(time.Duration) {}

// superviseFresh runs a fresh sharded sweep into a new journal at path
// and returns the journal's bytes with the supervision's results.
func superviseFresh(t *testing.T, exp core.Experiment, path string, shards int, o Options) ([]byte, *core.Outcome, []ShardOutcome, error) {
	t.Helper()
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	exp.Journal = w
	out, outs, serr := Supervise(exp, nil, shards, o)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, out, outs, serr
}

// superviseResume resumes the journal at path with a sharded
// supervision, as `asmp-sweep -shards N -resume` does.
func superviseResume(t *testing.T, exp core.Experiment, path string, shards int, o Options) ([]byte, *core.Outcome, []ShardOutcome, error) {
	t.Helper()
	log, w, err := journal.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	exp.Journal = w
	out, outs, serr := Supervise(exp, log, shards, o)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, out, outs, serr
}

func TestPartitionBalancedAndDeterministic(t *testing.T) {
	got := Partition(9, 4)
	want := []core.ShardRange{
		{Index: 0, Of: 4, Lo: 0, Hi: 3},
		{Index: 1, Of: 4, Lo: 3, Hi: 5},
		{Index: 2, Of: 4, Lo: 5, Hi: 7},
		{Index: 3, Of: 4, Lo: 7, Hi: 9},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d shards, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shard %d = %v, want %v", i, got[i], want[i])
		}
	}
	if one := Partition(9, 1); len(one) != 1 || one[0] != (core.ShardRange{Index: 0, Of: 1, Lo: 0, Hi: 9}) {
		t.Errorf("Partition(9,1) = %v", one)
	}
	// More shards than cells: the tail comes out empty, not invalid.
	empty := 0
	for _, r := range Partition(3, 5) {
		if r.Lo == r.Hi {
			empty++
		}
	}
	if empty != 2 {
		t.Errorf("Partition(3,5): %d empty shards, want 2", empty)
	}
}

// TestSuperviseMergeByteIdenticalAcrossShardCounts: the supervisor
// merges its workers' streams into a journal byte-identical to the
// sequential unsharded one, for every shard count — including more
// shards than cells — and its Outcome is the unsharded sweep's.
func TestSuperviseMergeByteIdenticalAcrossShardCounts(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)
	want := exp.Run()

	for _, k := range []int{1, 2, 4, 12} {
		path := filepath.Join(dir, fmt.Sprintf("run-%d.jsonl", k))
		raw, out, outs, err := superviseFresh(t, exp, path, k, Options{Run: inProcess(exp, ""), Sleep: noSleep})
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		for _, o := range outs {
			if o.Err != nil {
				t.Fatalf("shards=%d: shard %s: %v", k, o.Range, o.Err)
			}
		}
		if string(raw) != string(ref) {
			t.Errorf("shards=%d: journal differs from the unsharded reference", k)
		}
		if out.JournalErr != nil {
			t.Errorf("shards=%d: JournalErr = %v", k, out.JournalErr)
		}
		for c := range want.PerConfig {
			for r, v := range want.PerConfig[c].Values {
				if got := out.PerConfig[c].Values[r]; got != v {
					t.Errorf("shards=%d: cell (%d,%d) = %v, want %v", k, c, r, got, v)
				}
			}
		}
	}
}

// TestSuperviseRespawnsTornWorkerAndConverges: a worker whose stream
// tears mid-line is respawned over its undelivered remainder only —
// the respawn's range starts past the delivered prefix — and the
// journal still matches the reference.
func TestSuperviseRespawnsTornWorkerAndConverges(t *testing.T) {
	exp := testExperiment(t)
	exp.Sequential = true // the tear lands at the same cell every run
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)

	var mu sync.Mutex // Supervise runs the shards concurrently
	ranges := make(map[int][]core.ShardRange)
	runner := func(r core.ShardRange, stdout io.Writer) error {
		mu.Lock()
		ranges[r.Index] = append(ranges[r.Index], r)
		n := len(ranges[r.Index])
		mu.Unlock()
		var wrap journal.WrapSink
		if n == 1 {
			wrap = faultio.Plan{Tear: true, TearAt: 700}.Wrap()
		}
		return Worker(exp, r, "", stdout, wrap)
	}
	raw, _, outs, err := superviseFresh(t, exp, filepath.Join(dir, "run.jsonl"), 2, Options{Run: runner, Retries: 2, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("shard %s: %v", o.Range, o.Err)
		}
		rs := ranges[o.Range.Index]
		if o.Attempts != 2 || len(rs) != 2 {
			t.Fatalf("shard %s: attempts=%d, want a respawn", o.Range, o.Attempts)
		}
		if rs[0] != o.Range || rs[1].Lo <= o.Range.Lo || rs[1].Hi != o.Range.Hi {
			t.Errorf("shard %s: attempt ranges %v, want the respawn to start past the delivered prefix", o.Range, rs)
		}
	}
	if string(raw) != string(ref) {
		t.Error("journal differs from the unsharded reference after respawns")
	}
}

// TestSuperviseStreamRefusesBadRecords: a record the worker could not
// have produced fails the attempt and is never appended (the respawn
// delivers the real one), as does a worker that exits 0 with cells
// undelivered; a duplicate of a delivered cell is dropped without
// failing the attempt.
func TestSuperviseStreamRefusesBadRecords(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)
	refLines := strings.SplitAfter(string(ref), "\n")
	header, cell0 := refLines[0], refLines[1] // cell0 is (0,0), in shard 0

	// sealed streams one hand-made cell record after the header.
	sealed := func(stdout io.Writer, c journal.Cell) error {
		w := journal.Stream(stdout, nil)
		if err := w.WriteHeader(exp.JournalHeader()); err != nil {
			return err
		}
		return w.WriteCell(c)
	}
	first, err := journal.ParseLine([]byte(strings.TrimSpace(cell0)))
	if err != nil {
		t.Fatal(err)
	}
	good := *first.(*journal.Cell)
	wrongSeed := good
	wrongSeed.Seed++
	_, runs, _ := exp.Grid()
	outside := good
	outside.Cfg, outside.Run = 2, runs-1 // the grid's last cell: shard 1's
	outside.Config = exp.Configs[2].String()
	outside.Seed = core.RunSeed(exp.BaseSeed, 2, runs-1)

	for _, tc := range []struct {
		name     string
		bad      func(r core.ShardRange, stdout io.Writer) error
		attempts int
	}{
		{"checksum", func(_ core.ShardRange, stdout io.Writer) error {
			_, err := io.WriteString(stdout, header+strings.Replace(cell0, `"run":0`, `"run":1`, 1))
			return err
		}, 2},
		{"outside-range", func(_ core.ShardRange, stdout io.Writer) error { return sealed(stdout, outside) }, 2},
		{"wrong-seed", func(_ core.ShardRange, stdout io.Writer) error { return sealed(stdout, wrongSeed) }, 2},
		{"foreign-header", func(_ core.ShardRange, stdout io.Writer) error {
			other := exp
			other.BaseSeed++
			w := journal.Stream(stdout, nil)
			return w.WriteHeader(other.JournalHeader())
		}, 2},
		// A worker decoding a different -timeout or -retries streams the
		// same cells under its own header; the header alone betrays it.
		{"foreign-timeout", func(r core.ShardRange, stdout io.Writer) error {
			other := exp
			other.Limits.MaxVirtualTime = 1e6
			return Worker(other, r, "", stdout, nil)
		}, 2},
		{"foreign-retries", func(r core.ShardRange, stdout io.Writer) error {
			other := exp
			other.Retries++
			return Worker(other, r, "", stdout, nil)
		}, 2},
		{"silent-exit", func(core.ShardRange, io.Writer) error { return nil }, 2},
		{"duplicate", func(r core.ShardRange, stdout io.Writer) error {
			if err := Worker(exp, r, "", stdout, nil); err != nil {
				return err
			}
			_, err := io.WriteString(stdout, cell0)
			return err
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			spawned := 0
			runner := func(r core.ShardRange, stdout io.Writer) error {
				if r.Index == 0 {
					mu.Lock()
					spawned++
					n := spawned
					mu.Unlock()
					if n == 1 {
						return tc.bad(r, stdout)
					}
				}
				return Worker(exp, r, "", stdout, nil)
			}
			raw, _, outs, err := superviseFresh(t, exp, filepath.Join(t.TempDir(), "run.jsonl"), 2, Options{Run: runner, Retries: 1, Sleep: noSleep})
			if err != nil {
				t.Fatal(err)
			}
			if o := outs[0]; o.Err != nil || o.Attempts != tc.attempts {
				t.Fatalf("shard 0: err=%v attempts=%d, want success after %d attempt(s)", o.Err, o.Attempts, tc.attempts)
			}
			if string(raw) != string(ref) {
				t.Error("journal differs from the unsharded reference: a refused or duplicate record was appended")
			}
		})
	}
}

func TestRetryBudgetExhaustionDegradesToErrCells(t *testing.T) {
	exp := testExperiment(t)
	// Shard 1 dies instantly on every attempt, before writing a byte.
	runner := func(r core.ShardRange, stdout io.Writer) error {
		if r.Index == 1 {
			return errors.New("simulated crash loop")
		}
		return Worker(exp, r, "", stdout, nil)
	}
	_, out, outs, err := superviseFresh(t, exp, filepath.Join(t.TempDir(), "run.jsonl"), 2, Options{Run: runner, Retries: 1, Sleep: noSleep})
	if err != nil {
		t.Fatalf("supervision must complete despite the dead shard: %v", err)
	}
	if outs[0].Err != nil {
		t.Fatalf("healthy shard failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil || outs[1].Attempts != 2 {
		t.Fatalf("crash-loop shard: err=%v attempts=%d, want exhausted budget of 2", outs[1].Err, outs[1].Attempts)
	}

	_, runs, _ := exp.Grid()
	bad := outs[1].Range
	for c := range out.PerConfig {
		for r := 0; r < runs; r++ {
			err := out.PerConfig[c].Errs[r]
			if bad.Contains(c*runs + r) {
				switch {
				case err == nil || !strings.Contains(err.Error(), bad.String()):
					t.Errorf("cell (%d,%d): err = %v, want ERR naming shard %s", c, r, err, bad)
				case !strings.Contains(err.Error(), "failed: simulated crash loop"):
					// The recorded reason must be the shard's actual error,
					// not an assumed cause like "retry budget exhausted".
					t.Errorf("cell (%d,%d): err = %v, want the shard's own failure recorded", c, r, err)
				}
			} else if err != nil {
				t.Errorf("healthy cell (%d,%d): %v", c, r, err)
			}
		}
	}
}

// TestSuperviseCancelMidAttemptTypesError: when the cancel signal
// fires while an attempt is in flight and the worker dies with an
// untyped error (a process worker killed by the shared signal), the
// supervision must still end in an error matching core.ErrCancelled —
// the CLI's 130 exit with the resume hint depends on it.
func TestSuperviseCancelMidAttemptTypesError(t *testing.T) {
	exp := testExperiment(t)
	cancel := make(chan struct{})
	runner := func(core.ShardRange, io.Writer) error {
		close(cancel)
		return errors.New("signal: interrupt") // untyped, like a raw *exec.ExitError
	}
	_, out, outs, err := superviseFresh(t, exp, filepath.Join(t.TempDir(), "run.jsonl"), 1, Options{Run: runner, Retries: 3, Cancel: cancel, Sleep: noSleep})
	if out != nil {
		t.Fatal("a cancelled supervision returned an Outcome")
	}
	if o := outs[0]; o.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no respawn after cancel)", o.Attempts)
	}
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("err = %v, want an error matching core.ErrCancelled", err)
	}
	if !strings.Contains(err.Error(), "signal: interrupt") {
		t.Errorf("err %q drops the attempt's own error", err)
	}
}

// TestExecRunnerTypesCancelledWorkerExit: a worker process that exits
// 130 (the CLI's interrupted-sweep code) must come back from ExecRunner
// as an error matching core.ErrCancelled; any other non-zero exit stays
// the untyped *exec.ExitError.
func TestExecRunnerTypesCancelledWorkerExit(t *testing.T) {
	dir := t.TempDir()
	r := core.ShardRange{Index: 0, Of: 1, Lo: 0, Hi: 1}
	for _, tc := range []struct {
		code      int
		cancelled bool
	}{
		{ExitCancelled, true},
		{1, false},
		{3, false},
	} {
		bin := filepath.Join(dir, fmt.Sprintf("worker-%d.sh", tc.code))
		script := fmt.Sprintf("#!/bin/sh\nexit %d\n", tc.code)
		if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
		err := ExecRunner(bin, nil, io.Discard)(r, io.Discard)
		if err == nil {
			t.Fatalf("exit %d: runner returned nil", tc.code)
		}
		if got := errors.Is(err, core.ErrCancelled); got != tc.cancelled {
			t.Errorf("exit %d: errors.Is(err, ErrCancelled) = %v, want %v (err: %v)", tc.code, got, tc.cancelled, err)
		}
	}
}

// TestSuperviseSkipsCompleteJournal: resuming a journal that already
// records every cell spawns no worker and appends nothing.
func TestSuperviseSkipsCompleteJournal(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)
	path := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(path, ref, 0o644); err != nil {
		t.Fatal(err)
	}
	spawned := 0
	runner := func(r core.ShardRange, stdout io.Writer) error {
		spawned++
		return Worker(exp, r, path, stdout, nil)
	}
	raw, out, outs, err := superviseResume(t, exp, path, 2, Options{Run: runner, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if spawned != 0 {
		t.Errorf("resume spawned %d workers over a complete journal", spawned)
	}
	for _, o := range outs {
		if o.Err != nil || o.Attempts != 0 {
			t.Errorf("shard %s: %+v, want zero attempts", o.Range, o)
		}
	}
	if string(raw) != string(ref) || len(out.Errors()) != 0 {
		t.Error("resume over a complete journal changed it or its report")
	}
}

// TestSuperviseResumeMatchesSequentialResume: a sharded resume splits
// exactly the cells core.Resume would execute — missing ones and ones
// whose last record failed — and appends the bytes a sequential resume
// of the same journal appends, for any shard count.
func TestSuperviseResumeMatchesSequentialResume(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)
	lines := strings.SplitAfter(string(ref), "\n")
	// Keep the header and five cells, then record a failure for cell
	// (0,1): pending are (0,1) and the last four cells.
	prefixPath := filepath.Join(dir, "prefix.jsonl")
	if err := os.WriteFile(prefixPath, []byte(strings.Join(lines[:6], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, jw, err := journal.Resume(prefixPath)
	if err != nil {
		t.Fatal(err)
	}
	configs, _, _ := exp.Grid()
	if err := jw.WriteCell(journal.Cell{Config: configs[0].String(), Cfg: 0, Run: 1,
		Seed: core.RunSeed(exp.BaseSeed, 0, 1), Err: "injected failure"}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	prefix, err := os.ReadFile(prefixPath)
	if err != nil {
		t.Fatal(err)
	}

	// The sequential resume the sharded ones must match.
	seqPath := filepath.Join(dir, "seq.jsonl")
	if err := os.WriteFile(seqPath, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	seqLog, seqW, err := journal.Resume(seqPath)
	if err != nil {
		t.Fatal(err)
	}
	seq := exp
	seq.Sequential = true
	seq.Journal = seqW
	if _, err := seq.Resume(seqLog); err != nil {
		t.Fatal(err)
	}
	if err := seqW.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(seqPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 3} {
		path := filepath.Join(dir, fmt.Sprintf("run-%d.jsonl", k))
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		executed := 0
		runner := func(r core.ShardRange, stdout io.Writer) error {
			var sent strings.Builder
			err := Worker(exp, r, path, io.MultiWriter(stdout, &sent), nil)
			mu.Lock()
			executed += strings.Count(sent.String(), "\n") - 1 // less the header
			mu.Unlock()
			return err
		}
		raw, out, _, err := superviseResume(t, exp, path, k, Options{Run: runner, Sleep: noSleep})
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if string(raw) != string(want) {
			t.Errorf("shards=%d: resumed journal differs from the sequential resume", k)
		}
		if len(out.Errors()) != 0 {
			t.Errorf("shards=%d: resumed report carries errors: %v", k, out.Errors())
		}
		if executed != 5 {
			t.Errorf("shards=%d: workers executed %d cells, want only the 5 pending ones", k, executed)
		}
	}
}
