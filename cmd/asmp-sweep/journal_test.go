package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"asmp/internal/journal"
)

// sweepArgs is a small but real sweep: two configs, two runs each.
func sweepArgs(extra ...string) []string {
	args := []string{"-workload", "specjbb", "-configs", "4f-0s/4,2f-2s/8", "-runs", "2", "-seed", "1"}
	return append(args, extra...)
}

func TestJournalResumeByteIdentical(t *testing.T) {
	j := filepath.Join(t.TempDir(), "run.jsonl")

	// Reference: the uninterrupted sweep's report (journaling does not
	// change stdout).
	code, want, _ := runCmd(sweepArgs()...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d", code)
	}

	// Full journaled sweep, then chop it down to header + one cell and
	// append a torn line, simulating a kill mid-write.
	if code, _, errOut := runCmd(sweepArgs("-journal", j)...); code != 0 {
		t.Fatalf("journaled sweep exit = %d: %s", code, errOut)
	}
	raw, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	truncated := lines[0] + lines[1] + `{"kind":"cell","cfg":1,"ru`
	if err := os.WriteFile(j, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	code, got, errOut := runCmd(sweepArgs("-journal", j, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exit = %d: %s", code, errOut)
	}
	if got != want {
		t.Errorf("resumed report differs from uninterrupted sweep:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if !strings.Contains(errOut, "corrupt tail") {
		t.Errorf("torn line not reported: %s", errOut)
	}

	// Only the missing cells were re-executed and appended: the surviving
	// cell's original line is still in place, and the journal now holds
	// exactly the sweep's four cells.
	final, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(final), lines[0]+lines[1]) {
		t.Error("resume rewrote the surviving journal prefix")
	}
	log, err := journal.Read(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Cells) != 4 || log.Dropped != 0 {
		t.Errorf("final journal: %d cells, %d dropped; want 4, 0", len(log.Cells), log.Dropped)
	}
}

func TestResumeTrustsJournaledCells(t *testing.T) {
	// A forged (but checksum-valid, identity-valid) cell value must show
	// up verbatim in the resumed report: proof the cell was carried over
	// rather than re-executed.
	j := filepath.Join(t.TempDir(), "run.jsonl")
	if code, _, errOut := runCmd(sweepArgs("-journal", j)...); code != 0 {
		t.Fatalf("journaled sweep exit = %d: %s", code, errOut)
	}
	log, err := journal.Read(j)
	if err != nil {
		t.Fatal(err)
	}
	forged := *log.Cell(0, 0)
	forged.Value = 123456789
	w, err := journal.Create(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(*log.Header); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCell(forged); err != nil {
		t.Fatal(err)
	}
	w.Close()

	code, out, errOut := runCmd(sweepArgs("-journal", j, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exit = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "123456789") {
		t.Errorf("forged journal value not carried into the report:\n%s", out)
	}
}

func TestResumeRejectsDifferentSweep(t *testing.T) {
	j := filepath.Join(t.TempDir(), "run.jsonl")
	if code, _, _ := runCmd(sweepArgs("-journal", j)...); code != 0 {
		t.Fatal("journaled sweep failed")
	}
	code, _, errOut := runCmd("-workload", "specjbb", "-configs", "4f-0s/4,2f-2s/8",
		"-runs", "2", "-seed", "99", "-journal", j, "-resume")
	if code != 2 {
		t.Fatalf("resume against wrong seed exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "different sweep") {
		t.Errorf("stderr = %s, want a different-sweep error", errOut)
	}
}

// TestResumeRefusesChangedLimits pins the two knobs that decide which
// runs fail without changing any cell's seed: the virtual-time
// watchdog and the retry budget. Resuming under a different value of
// either would carry over cells the new sweep reports differently, so
// the resume is refused with the typed identity error naming the
// field; under the same value (in any spelling) it reproduces the
// uninterrupted report byte for byte.
func TestResumeRefusesChangedLimits(t *testing.T) {
	for _, tc := range []struct {
		name string
		// args is the smallest sweep that shows the hole: under
		// -timeout 1ms every cell fails at once; TPC-H's second run on
		// 2f-2s/8 overruns 25s on its first attempt and finishes on
		// its retry.
		args          []string
		changed, same []string
		field         string
	}{
		{"timeout", []string{"-workload", "specjbb", "-configs", "4f-0s/4", "-runs", "2", "-timeout", "1ms"},
			[]string{"-timeout", "1min"}, []string{"-timeout", "0.001s"}, `timeout is "0.001s", this sweep has "60s"`},
		{"timeout-unset", []string{"-workload", "specjbb", "-configs", "4f-0s/4", "-runs", "2"},
			[]string{"-timeout", "1ms"}, nil, `timeout is "", this sweep has "0.001s"`},
		{"retries", []string{"-workload", "tpch", "-configs", "2f-2s/8", "-runs", "2", "-timeout", "25s", "-retries", "1"},
			[]string{"-retries", "0"}, []string{"-retries", "1"}, "retries is 1, this sweep has 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := func(extra ...string) []string {
				return append(append([]string{}, tc.args...), extra...)
			}
			j := filepath.Join(t.TempDir(), "run.jsonl")
			wantCode, want, _ := runCmd(args("-journal", j)...)
			raw, err := os.ReadFile(j)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(raw), "\n")
			cut := lines[0] + lines[1]
			if err := os.WriteFile(j, []byte(cut), 0o644); err != nil {
				t.Fatal(err)
			}

			code, out, errOut := runCmd(args(append(tc.changed, "-journal", j, "-resume")...)...)
			if code != 2 || out != "" {
				t.Fatalf("resume with %v: exit %d, stdout %q; want 2 and no report", tc.changed, code, out)
			}
			if !strings.Contains(errOut, "core: journal "+j+" records a different sweep: "+tc.field) {
				t.Fatalf("resume with %v: stderr %q does not refuse on %s", tc.changed, errOut, tc.field)
			}
			if got, _ := os.ReadFile(j); string(got) != cut {
				t.Fatal("a refused resume wrote to the journal")
			}
			if tc.same == nil {
				return
			}
			code, got, errOut := runCmd(args(append(tc.same, "-journal", j, "-resume")...)...)
			if code != wantCode {
				t.Fatalf("resume with %v: exit %d, want %d: %s", tc.same, code, wantCode, errOut)
			}
			if got != want {
				t.Errorf("resumed report differs from uninterrupted sweep:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	code, _, errOut := runCmd(sweepArgs("-resume")...)
	if code != 2 || !strings.Contains(errOut, "-resume requires -journal") {
		t.Errorf("exit = %d, stderr = %s", code, errOut)
	}
}

func TestCancelledSweepResumesByteIdentical(t *testing.T) {
	j := filepath.Join(t.TempDir(), "run.jsonl")
	code, want, _ := runCmd(sweepArgs()...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d", code)
	}

	// A cancel signal that is already closed stops every cell before it
	// starts — the strongest interruption.
	cancel := make(chan struct{})
	close(cancel)
	var out, errb bytes.Buffer
	code = runWith(sweepArgs("-journal", j), &out, &errb, cancel)
	if code != exitCancelled {
		t.Fatalf("cancelled sweep exit = %d, want %d\nstderr: %s", code, exitCancelled, errb.String())
	}
	if !strings.Contains(out.String(), "CANCELLED") {
		t.Errorf("cancelled report lacks CANCELLED cells:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "-resume") {
		t.Errorf("stderr lacks the resume hint: %s", errb.String())
	}

	code, got, errOut := runCmd(sweepArgs("-journal", j, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exit = %d: %s", code, errOut)
	}
	if got != want {
		t.Errorf("resumed report differs from uninterrupted sweep:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestCrashAtFlag drives the end-to-end crash path: a sweep whose
// journal is torn at a byte offset by the hidden -crashat flag still
// reports correctly, warns on stderr, and the torn journal resumes to
// a byte-identical report.
func TestCrashAtFlag(t *testing.T) {
	dir := t.TempDir()
	j := filepath.Join(dir, "run.jsonl")
	code, want, _ := runCmd(sweepArgs()...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d", code)
	}

	// Size a complete journal first, then tear two thirds in — past the
	// header and at least one cell, so the resume has both carried and
	// re-executed work.
	ref := filepath.Join(dir, "ref.jsonl")
	if code, _, errOut := runCmd(sweepArgs("-journal", ref)...); code != 0 {
		t.Fatalf("journaled sweep exit = %d: %s", code, errOut)
	}
	fi, err := os.Stat(ref)
	if err != nil {
		t.Fatal(err)
	}
	tear := fi.Size() * 2 / 3
	tearArg := fmt.Sprintf("%d", tear)

	code, got, errOut := runCmd(sweepArgs("-journal", j, "-crashat", tearArg)...)
	if code != 0 {
		t.Fatalf("torn sweep exit = %d: %s", code, errOut)
	}
	if got != want {
		t.Errorf("journal tear changed the sweep report:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if !strings.Contains(errOut, "journal incomplete") ||
		!strings.Contains(errOut, "injected crash: journal torn at byte "+tearArg) {
		t.Errorf("stderr does not report the injected tear:\n%s", errOut)
	}
	if fi, err := os.Stat(j); err != nil {
		t.Fatal(err)
	} else if fi.Size() > tear {
		t.Errorf("torn journal is %d bytes, want at most %d", fi.Size(), tear)
	}

	// The torn journal satisfies the crash contract: resume reproduces
	// the reference report exactly.
	code, resumed, errOut := runCmd(sweepArgs("-journal", j, "-resume")...)
	if code != 0 {
		t.Fatalf("resume of torn journal exit = %d: %s", code, errOut)
	}
	if resumed != want {
		t.Errorf("resume of torn journal differs:\n--- want ---\n%s--- got ---\n%s", want, resumed)
	}
}

func TestCrashAtRequiresJournal(t *testing.T) {
	code, _, errOut := runCmd(sweepArgs("-crashat", "10")...)
	if code != 2 || !strings.Contains(errOut, "-crashat requires -journal") {
		t.Errorf("exit = %d, stderr = %s", code, errOut)
	}
	if code, _, errOut := runCmd(sweepArgs("-crashat", "-4")...); code != 2 ||
		!strings.Contains(errOut, "non-negative") {
		t.Errorf("negative offset: exit = %d, stderr = %s", code, errOut)
	}
}

// TestCrashAtHidden: the flag is for the crash matrix, not for users —
// it must not appear in -h output.
func TestCrashAtHidden(t *testing.T) {
	code, _, errOut := runCmd("-h")
	if code != 2 {
		t.Fatalf("-h exit = %d, want 2", code)
	}
	if strings.Contains(errOut, "crashat") {
		t.Errorf("-crashat leaked into usage:\n%s", errOut)
	}
}

func TestVerifyFlag(t *testing.T) {
	code, out, errOut := runCmd("-workload", "specjbb", "-configs", "2f-2s/8", "-verify", "2")
	if code != 0 {
		t.Fatalf("-verify exit = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "bit-identically") {
		t.Errorf("-verify output:\n%s", out)
	}
	if code, _, errOut := runCmd(sweepArgs("-verify", "2", "-journal", "x")...); code != 2 ||
		!strings.Contains(errOut, "does not combine") {
		t.Errorf("-verify with -journal: exit %d, stderr %s", code, errOut)
	}
}

// TestCommittedSampleJournalResumes exercises the seed-1 sample journal
// committed under results/: a partial journal from this exact sweep
// (one cell short) must resume into the same report an uninterrupted
// sweep produces. This pins the on-disk journal format: if the schema
// or the seed derivation changes incompatibly, this test fails against
// the committed artifact rather than silently orphaning old journals.
func TestCommittedSampleJournalResumes(t *testing.T) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate source file")
	}
	sample := filepath.Join(filepath.Dir(file), "..", "..", "results", "sample-run.jsonl")
	raw, err := os.ReadFile(sample)
	if err != nil {
		t.Skipf("sample journal not available: %v", err)
	}
	// Never resume the committed file in place — resuming appends.
	j := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(j, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	code, want, _ := runCmd(sweepArgs()...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d", code)
	}
	code, got, errOut := runCmd(sweepArgs("-journal", j, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exit = %d: %s", code, errOut)
	}
	if got != want {
		t.Errorf("resume from committed sample differs from uninterrupted sweep:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	log, err := journal.Read(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Cells) != 4 {
		t.Errorf("resumed journal has %d cells, want 4", len(log.Cells))
	}
}
