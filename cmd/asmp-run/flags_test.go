package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// chdir runs the rest of the test in dir, so flag values can be bare
// relative names.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFlagValueSpelledLikeHiddenFlag: a value that happens to spell the
// hidden -crashat flag's name is an ordinary value, here an -out
// directory.
func TestFlagValueSpelledLikeHiddenFlag(t *testing.T) {
	chdir(t, t.TempDir())
	for _, name := range []string{"crashat", "crashat=5"} {
		code, _, errOut := runCmd("-fig", "micro", "-quick", "-out", name)
		if code != 0 {
			t.Fatalf("-out %s: exit = %d: %s", name, code, errOut)
		}
		if _, err := os.Stat(filepath.Join(name, "fig-micro.txt")); err != nil {
			t.Errorf("-out %s: %v", name, err)
		}
	}
}

// TestCrashAtTearsFigureJournal: -crashat N leaves exactly the first N
// bytes of the journal an untorn run writes, fails the run, and a torn
// figure line resumes to the untorn run's output.
func TestCrashAtTearsFigureJournal(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	code, want, errOut := runCmd("-fig", "micro", "-quick", "-journal", ref)
	if code != 0 {
		t.Fatalf("reference exit = %d: %s", code, errOut)
	}
	refRaw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.IndexByte(string(refRaw), '\n') + 1
	for _, tear := range []int{header / 2, header + 10} {
		j := filepath.Join(dir, "torn.jsonl")
		code, _, errOut := runCmd("-fig", "micro", "-quick", "-journal", j, "-crashat", strconv.Itoa(tear))
		if code == 0 || !strings.Contains(errOut, "injected") {
			t.Errorf("tear at %d: exit = %d, stderr: %s", tear, code, errOut)
		}
		got, err := os.ReadFile(j)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(refRaw[:tear]) {
			t.Errorf("tear at %d left %d bytes, want the reference's first %d", tear, len(got), tear)
		}
	}
	code, got, errOut := runCmd("-fig", "micro", "-quick", "-journal", filepath.Join(dir, "torn.jsonl"), "-resume")
	if code != 0 || got != want {
		t.Errorf("resume of a torn figure line: exit = %d, stdout equal = %v, stderr: %s", code, got == want, errOut)
	}
}

// TestDamagedResumeSetsAside: a journal damaged beyond a torn tail is
// refused and set aside, with the rerun hint.
func TestDamagedResumeSetsAside(t *testing.T) {
	j := filepath.Join(t.TempDir(), "figs.jsonl")
	if code, _, errOut := runCmd("-fig", "micro", "-quick", "-journal", j); code != 0 {
		t.Fatalf("journaled run exit = %d: %s", code, errOut)
	}
	raw, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if err := os.WriteFile(j, []byte(lines[0]+"{broken}\n"+strings.Join(lines[1:], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCmd("-fig", "micro", "-quick", "-journal", j, "-resume")
	if code != 2 || !strings.Contains(errOut, "set aside to "+j+".damaged") ||
		!strings.Contains(errOut, "rerun with -journal "+j) {
		t.Errorf("exit = %d, stderr: %s", code, errOut)
	}
	if _, err := os.Stat(j + ".damaged"); err != nil {
		t.Errorf("damaged journal not set aside: %v", err)
	}
}
