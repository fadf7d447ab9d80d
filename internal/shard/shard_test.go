package shard

// Unit tests for the partition planner, manifest recovery, the
// supervisor's respawn/set-aside/budget behaviour, and the merge's
// byte-identity claim — all with in-process runners. The subprocess
// chaos harness (SIGKILL at sampled bytes) lives in chaos_test.go.

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
// records land in flattened order, exactly as the merge emits them)
// and returns the journal bytes the merge must reproduce.
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

// inProcess returns a Runner that executes shards in this process.
func inProcess(exp core.Experiment) Runner {
	return func(spec Spec, resume bool) error {
		return Worker(exp, spec.Range, spec.Journal, resume, nil)
	}
}

// noSleep silences supervision backoff in tests.
func noSleep(time.Duration) {}

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

func TestRecoverCommitsAndAdoptsManifest(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")

	p, adopted, err := Recover(exp, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adopted {
		t.Fatal("fresh recover claims adoption")
	}
	if len(p.Specs) != 2 || p.ManifestPath != path+".manifest" {
		t.Fatalf("plan = %+v", p)
	}
	log, err := journal.Read(p.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if log.Header == nil || log.Header.Shards != 2 || len(log.Shards) != 2 {
		t.Fatalf("manifest header %+v, %d shard records", log.Header, len(log.Shards))
	}

	// A restarted supervisor with a different -shards flag adopts the
	// committed plan: the manifest wins.
	var notes []string
	logf := func(f string, a ...any) { notes = append(notes, fmt.Sprintf(f, a...)) }
	p2, adopted, err := Recover(exp, 4, path, nil, logf)
	if err != nil {
		t.Fatal(err)
	}
	if !adopted || len(p2.Specs) != 2 {
		t.Fatalf("adopted=%v specs=%d, want adoption of the 2-shard plan", adopted, len(p2.Specs))
	}
	if len(notes) == 0 || !strings.Contains(notes[0], "ignoring -shards 4") {
		t.Errorf("no note about the ignored flag: %v", notes)
	}
	for i := range p.Specs {
		if p2.Specs[i] != p.Specs[i] {
			t.Errorf("adopted spec %d = %+v, want %+v", i, p2.Specs[i], p.Specs[i])
		}
	}

	// A different sweep at the same journal path is refused, typed.
	other := exp
	other.BaseSeed = 99
	var refused *core.ResumeRefusedError
	if _, _, err := Recover(other, 2, path, nil, nil); !errors.As(err, &refused) {
		t.Fatalf("recover over foreign manifest: %v, want *core.ResumeRefusedError", err)
	}

	// A damaged manifest is set aside and recommitted.
	raw, err := os.ReadFile(p.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	corrupt := lines[0] + "{broken}\n" + strings.Join(lines[2:], "")
	if err := os.WriteFile(p.ManifestPath, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	p3, adopted, err := Recover(exp, 3, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adopted || len(p3.Specs) != 3 {
		t.Fatalf("recover after damage: adopted=%v specs=%d, want fresh 3-shard plan", adopted, len(p3.Specs))
	}
	if _, err := os.Stat(p.ManifestPath + ".damaged"); err != nil {
		t.Errorf("damaged manifest not set aside: %v", err)
	}
}

func TestSuperviseMergeByteIdenticalAcrossShardCounts(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)

	for _, k := range []int{1, 2, 4} {
		path := filepath.Join(dir, fmt.Sprintf("run-%d.jsonl", k))
		plan, _, err := Recover(exp, k, path, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		outcomes := Supervise(Options{Plan: plan, Run: inProcess(exp), Sleep: noSleep})
		for _, o := range outcomes {
			if o.Err != nil {
				t.Fatalf("shards=%d: shard %s: %v", k, o.Spec.Range, o.Err)
			}
		}
		if _, err := Merge(exp, plan, outcomes, nil); err != nil {
			t.Fatalf("shards=%d: merge: %v", k, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(ref) {
			t.Errorf("shards=%d: merged journal differs from the unsharded reference", k)
		}
	}
}

func TestSuperviseRespawnsTornWorkerAndConverges(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)
	path := filepath.Join(dir, "run.jsonl")
	plan, _, err := Recover(exp, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// First attempt of every shard tears its journal mid-stream; the
	// respawn resumes the valid prefix cleanly.
	var mu sync.Mutex // Supervise runs the shards concurrently
	attempts := make(map[int]int)
	runner := func(spec Spec, resume bool) error {
		mu.Lock()
		attempts[spec.Range.Index]++
		n := attempts[spec.Range.Index]
		mu.Unlock()
		var wrap journal.WrapSink
		if n == 1 {
			wrap = faultio.Plan{Tear: true, TearAt: 700}.Wrap()
		}
		return Worker(exp, spec.Range, spec.Journal, resume, wrap)
	}
	r0, s0 := Stats()
	outcomes := Supervise(Options{Plan: plan, Run: runner, Retries: 2, Sleep: noSleep})
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("shard %s: %v", o.Spec.Range, o.Err)
		}
		if o.Attempts != 2 || !o.Resumed {
			t.Errorf("shard %s: attempts=%d resumed=%v, want a resumed respawn", o.Spec.Range, o.Attempts, o.Resumed)
		}
	}
	r1, s1 := Stats()
	if r1 != r0+2 || s1 != s0+2 {
		t.Errorf("Stats delta = (%d,%d), want (2,2)", r1-r0, s1-s0)
	}
	if _, err := Merge(exp, plan, outcomes, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(ref) {
		t.Error("merged journal differs from the unsharded reference after respawns")
	}
}

func TestSuperviseSetsAsideDamagedShardJournal(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)
	path := filepath.Join(dir, "run.jsonl")
	plan, _, err := Recover(exp, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A stale, mid-file-corrupted journal squats on shard 0's path.
	if err := os.WriteFile(plan.Specs[0].Journal, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outcomes := Supervise(Options{Plan: plan, Run: inProcess(exp), Sleep: noSleep})
	if outcomes[0].Err != nil {
		t.Fatalf("shard 0: %v", outcomes[0].Err)
	}
	if len(outcomes[0].SetAside) != 1 {
		t.Fatalf("shard 0 set aside %v, want one path", outcomes[0].SetAside)
	}
	if _, err := os.Stat(outcomes[0].SetAside[0]); err != nil {
		t.Errorf("set-aside file missing: %v", err)
	}
	if _, err := Merge(exp, plan, outcomes, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(ref) {
		t.Error("merged journal differs from the unsharded reference after set-aside")
	}
}

func TestRetryBudgetExhaustionDegradesToErrCells(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	plan, _, err := Recover(exp, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 dies instantly on every attempt, before writing a byte.
	runner := func(spec Spec, resume bool) error {
		if spec.Range.Index == 1 {
			return errors.New("simulated crash loop")
		}
		return Worker(exp, spec.Range, spec.Journal, resume, nil)
	}
	outcomes := Supervise(Options{Plan: plan, Run: runner, Retries: 1, Sleep: noSleep})
	if outcomes[0].Err != nil {
		t.Fatalf("healthy shard failed: %v", outcomes[0].Err)
	}
	if outcomes[1].Err == nil || outcomes[1].Attempts != 2 {
		t.Fatalf("crash-loop shard: err=%v attempts=%d, want exhausted budget of 2", outcomes[1].Err, outcomes[1].Attempts)
	}

	log, err := Merge(exp, plan, outcomes, nil)
	if err != nil {
		t.Fatalf("merge must complete despite the dead shard: %v", err)
	}
	out, err := exp.Replay(log)
	if err != nil {
		t.Fatal(err)
	}
	_, runs, _ := exp.Grid()
	bad := plan.Specs[1].Range
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
// outcome must still match core.ErrCancelled — runSharded's refusal to
// merge and its 130 exit with the resume hint depend on it.
func TestSuperviseCancelMidAttemptTypesError(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	plan, _, err := Recover(exp, 1, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	runner := func(spec Spec, resume bool) error {
		close(cancel)
		return errors.New("signal: interrupt") // untyped, like a raw *exec.ExitError
	}
	outcomes := Supervise(Options{Plan: plan, Run: runner, Retries: 3, Cancel: cancel, Sleep: noSleep})
	o := outcomes[0]
	if o.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no respawn after cancel)", o.Attempts)
	}
	if !errors.Is(o.Err, core.ErrCancelled) {
		t.Fatalf("outcome err = %v, want an error matching core.ErrCancelled", o.Err)
	}
	if !strings.Contains(o.Err.Error(), "signal: interrupt") {
		t.Errorf("outcome err %q drops the attempt's own error", o.Err)
	}
}

// TestExecRunnerTypesCancelledWorkerExit: a worker process that exits
// 130 (the CLI's interrupted-sweep code) must come back from ExecRunner
// as an error matching core.ErrCancelled; any other non-zero exit stays
// the untyped *exec.ExitError.
func TestExecRunnerTypesCancelledWorkerExit(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Range: core.ShardRange{Index: 0, Of: 1, Lo: 0, Hi: 1}, Journal: filepath.Join(dir, "s0.jsonl")}
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
		err := ExecRunner(bin, nil, io.Discard)(spec, false)
		if err == nil {
			t.Fatalf("exit %d: runner returned nil", tc.code)
		}
		if got := errors.Is(err, core.ErrCancelled); got != tc.cancelled {
			t.Errorf("exit %d: errors.Is(err, ErrCancelled) = %v, want %v (err: %v)", tc.code, got, tc.cancelled, err)
		}
	}
}

// TestMergeRefusesSuccessfulShardMissingCells: a readable shard journal
// that is short an in-range cell behind a shard reporting success is
// the same contradiction as an unreadable one — it must surface as a
// merge error, not silently degrade to ERR cells.
func TestMergeRefusesSuccessfulShardMissingCells(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	plan, _, err := Recover(exp, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := Supervise(Options{Plan: plan, Run: inProcess(exp), Sleep: noSleep})
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("shard %s: %v", o.Spec.Range, o.Err)
		}
	}
	// Drop shard 0's last line: still a valid journal, one cell short.
	raw, err := os.ReadFile(plan.Specs[0].Journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 3 {
		t.Fatalf("shard journal too short: %d lines", len(lines))
	}
	short := strings.Join(lines[:len(lines)-2], "")
	if err := os.WriteFile(plan.Specs[0].Journal, []byte(short), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(exp, plan, outcomes, nil)
	if err == nil || !strings.Contains(err.Error(), "reported success") ||
		!strings.Contains(err.Error(), plan.Specs[0].Range.String()) {
		t.Fatalf("merge over the shortened journal: %v, want a success/journal contradiction naming shard %s",
			err, plan.Specs[0].Range)
	}
}

func TestSuperviseSkipsCompleteShardJournal(t *testing.T) {
	exp := testExperiment(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	plan, _, err := Recover(exp, 2, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First supervision completes both shards.
	Supervise(Options{Plan: plan, Run: inProcess(exp), Sleep: noSleep})
	// A restarted supervisor finds both journals complete: no spawns.
	spawned := 0
	runner := func(spec Spec, resume bool) error {
		spawned++
		return Worker(exp, spec.Range, spec.Journal, resume, nil)
	}
	outcomes := Supervise(Options{Plan: plan, Run: runner, Sleep: noSleep})
	if spawned != 0 {
		t.Errorf("restart spawned %d workers over complete journals", spawned)
	}
	for _, o := range outcomes {
		if o.Err != nil || o.Attempts != 0 {
			t.Errorf("shard %s: %+v, want zero attempts", o.Spec.Range, o)
		}
	}
}
