package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asmp/internal/journal"
)

// TestFlagValuesSpelledLikeHiddenFlags: values that happen to spell a
// hidden flag's name are ordinary values, here -journal paths.
func TestFlagValuesSpelledLikeHiddenFlags(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range []string{"shardworker", "crashat", "crashat=5"} {
		code, _, errOut := runCmd("-workload", "tpch", "-configs", "4f-0s", "-runs", "1", "-journal", name, "-no-cache")
		if code != 0 {
			t.Fatalf("-journal %s: exit = %d: %s", name, code, errOut)
		}
		log, err := journal.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(log.Cells) != 1 {
			t.Errorf("-journal %s holds %d cells, want 1", name, len(log.Cells))
		}
	}
}

// TestCrashAtSpellings: -crashat parses as every flag does — -crashat N,
// -crashat=N and the double-dash forms, anywhere among the other flags —
// tearing the journal after exactly N bytes, and refuses a missing,
// non-numeric or negative offset.
func TestCrashAtSpellings(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	code, wantText, errOut := runCmd(sweepArgs("-workers", "1", "-journal", ref)...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d: %s", code, errOut)
	}
	refRaw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	code, wantCSV, _ := runCmd(sweepArgs("-csv")...)
	if code != 0 {
		t.Fatalf("csv sweep exit = %d", code)
	}
	for _, tc := range []struct {
		args []string
		tear int // -1: no tear
		want string
	}{
		{nil, -1, wantText},
		{[]string{"-crashat", "128"}, 128, wantText},
		{[]string{"-crashat=99", "-csv"}, 99, wantCSV},
		{[]string{"--crashat", "0"}, 0, wantText},
		{[]string{"--crashat=7"}, 7, wantText},
	} {
		j := filepath.Join(dir, "run.jsonl")
		args := append([]string{"-workers", "1", "-journal", j}, tc.args...)
		code, out, errOut := runCmd(sweepArgs(args...)...)
		if code != 0 || out != tc.want {
			t.Errorf("%q: exit = %d, report equal = %v, stderr: %s", tc.args, code, out == tc.want, errOut)
		}
		got, err := os.ReadFile(j)
		if err != nil {
			t.Fatal(err)
		}
		want := refRaw
		if tc.tear >= 0 {
			want = refRaw[:tc.tear]
			if !strings.Contains(errOut, "injected crash: journal torn at byte") {
				t.Errorf("%q: stderr does not report the tear: %s", tc.args, errOut)
			}
		}
		if string(got) != string(want) {
			t.Errorf("%q: journal is %d bytes, want the reference's first %d", tc.args, len(got), len(want))
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-crashat"}, "needs an argument"},
		{[]string{"-crashat", "x"}, "non-negative byte offset"},
		{[]string{"-crashat=-5"}, "non-negative byte offset"},
	} {
		args := append([]string{"-journal", filepath.Join(dir, "refused.jsonl")}, tc.args...)
		if code, _, errOut := runCmd(sweepArgs(args...)...); code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%q: exit = %d, stderr: %s", tc.args, code, errOut)
		}
	}
}
