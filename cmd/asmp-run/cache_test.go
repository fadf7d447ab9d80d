package main

// The byte-identical proof for figure regeneration: a cold cache, a
// warm cache and -no-cache produce the same figure bytes on stdout, and
// the warm run is served entirely from verified disk hits. The
// benchmark's regen-warm workload (bench/) times the warm path; the
// test uses -fig 4a -quick (the cheapest figure whose cells run through
// core.Execute — micro builds its sim.Env by hand and bypasses every
// cache) so it stays in tier 1.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asmp/internal/core"
)

// figArgs is the fast deterministic figure used by the cache tests.
func figArgs(extra ...string) []string {
	return append([]string{"-fig", "4a", "-quick", "-seed", "1"}, extra...)
}

func countCells(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".cell") {
			n++
		}
	}
	return n
}

func TestRunCacheColdWarmNoCacheByteIdentical(t *testing.T) {
	core.ResetMemo()
	t.Cleanup(func() {
		core.SetResultCache(nil)
		core.ResetMemo()
	})
	cacheDir := filepath.Join(t.TempDir(), "cache")

	code, want, _ := runCmd(figArgs("-no-cache")...)
	if code != 0 {
		t.Fatalf("reference run exit = %d", code)
	}

	core.ResetMemo()
	code, cold, errOut := runCmd(figArgs("-cache-dir", cacheDir)...)
	if code != 0 {
		t.Fatalf("cold-cache run exit = %d: %s", code, errOut)
	}
	if cold != want {
		t.Errorf("cold-cache figure differs from uncached:\n--- want ---\n%s--- got ---\n%s", want, cold)
	}
	if core.MemoStats().Disk.Stored == 0 {
		t.Fatal("cold run published nothing")
	}
	if countCells(t, cacheDir) == 0 {
		t.Fatal("cold run left no .cell entries")
	}

	// A cold memo over a warm disk: every cell is a verified hit.
	core.ResetMemo()
	code, warm, errOut := runCmd(figArgs("-cache-dir", cacheDir)...)
	if code != 0 {
		t.Fatalf("warm-cache run exit = %d: %s", code, errOut)
	}
	if warm != want {
		t.Errorf("warm-cache figure differs from uncached:\n--- want ---\n%s--- got ---\n%s", want, warm)
	}
	st := core.MemoStats().Disk
	if st.Hits == 0 {
		t.Fatal("warm run served no disk hits")
	}
	if st.Stored != 0 || st.Refused != 0 {
		t.Fatalf("warm run stored %d / refused %d; want all hits", st.Stored, st.Refused)
	}

	core.ResetMemo()
	code, off, _ := runCmd(figArgs("-cache-dir", cacheDir, "-no-cache")...)
	if code != 0 {
		t.Fatal("-no-cache run failed")
	}
	if off != want {
		t.Error("-no-cache figure differs")
	}
	if core.ResultCache() != nil {
		t.Fatal("-no-cache left a cache attached")
	}
}

func TestRunCacheJournaledFigureByteIdentical(t *testing.T) {
	core.ResetMemo()
	t.Cleanup(func() {
		core.SetResultCache(nil)
		core.ResetMemo()
	})
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")

	refJ := filepath.Join(dir, "ref.jsonl")
	if code, _, errOut := runCmd(figArgs("-journal", refJ, "-no-cache")...); code != 0 {
		t.Fatalf("reference journal exit = %d: %s", code, errOut)
	}
	ref, err := os.ReadFile(refJ)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the cache, then regenerate the journal from disk hits: the
	// journal (sealed records, digests and all) must be byte-identical.
	core.ResetMemo()
	if code, _, _ := runCmd(figArgs("-cache-dir", cacheDir)...); code != 0 {
		t.Fatal("warming run failed")
	}
	core.ResetMemo()
	warmJ := filepath.Join(dir, "warm.jsonl")
	if code, _, errOut := runCmd(figArgs("-journal", warmJ, "-cache-dir", cacheDir)...); code != 0 {
		t.Fatalf("warm journal exit = %d: %s", code, errOut)
	}
	got, err := os.ReadFile(warmJ)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Error("journal written over a warm cache differs from the uncached journal")
	}
	if core.MemoStats().Disk.Hits == 0 {
		t.Fatal("warm journal run served no disk hits")
	}
}

func TestRunCacheFlagsDocumentedAndValidated(t *testing.T) {
	core.ResetMemo()
	t.Cleanup(func() {
		core.SetResultCache(nil)
		core.ResetMemo()
	})
	occupied := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCmd(figArgs("-cache-dir", filepath.Join(occupied, "sub"))...)
	if code != 2 || !strings.Contains(errOut, "resultcache") {
		t.Errorf("unopenable -cache-dir: exit = %d, stderr = %s", code, errOut)
	}
	_, _, usage := runCmd("-h")
	for _, flag := range []string{"-cache-dir", "-no-cache", "-cache-max-mb"} {
		if !strings.Contains(usage, flag) {
			t.Errorf("usage lacks %s:\n%s", flag, usage)
		}
	}
}
