package main

// CLI tests for the disk result cache (-cache-dir / -no-cache): the
// byte-identical proof — cold cache, warm cache and -no-cache produce
// the same report bytes, and a sharded sweep over a warm cache writes a
// journal byte-identical to the unsharded reference while its workers
// (separate processes) hit entries this process published.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asmp/internal/core"
)

// resetCaches detaches the disk cache and cools the in-memory memo, so
// each in-process CLI invocation models a fresh process.
func resetCaches(t *testing.T) {
	t.Helper()
	core.ResetMemo()
	t.Cleanup(func() {
		core.SetResultCache(nil)
		core.ResetMemo()
	})
}

func cacheEntries(t *testing.T, dir string) int {
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

func TestCacheColdWarmNoCacheByteIdentical(t *testing.T) {
	resetCaches(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// Reference: no cache anywhere.
	code, want, _ := runCmd(sweepArgs("-no-cache")...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d", code)
	}

	// Cold cache: first run against an empty cache dir simulates
	// everything, publishes every cell, and reports identically.
	core.ResetMemo()
	code, cold, errOut := runCmd(sweepArgs("-cache-dir", cacheDir)...)
	if code != 0 {
		t.Fatalf("cold-cache sweep exit = %d: %s", code, errOut)
	}
	if cold != want {
		t.Errorf("cold-cache report differs from uncached:\n--- want ---\n%s--- got ---\n%s", want, cold)
	}
	stored := core.MemoStats().Disk.Stored
	if stored == 0 {
		t.Fatal("cold run published nothing")
	}
	if got := cacheEntries(t, cacheDir); got == 0 {
		t.Fatal("cold run left no .cell entries on disk")
	}

	// Warm cache, cold memo: a new "process" serves every cell from
	// disk — zero stores, nonzero verified hits, identical bytes.
	core.ResetMemo()
	code, warm, errOut := runCmd(sweepArgs("-cache-dir", cacheDir)...)
	if code != 0 {
		t.Fatalf("warm-cache sweep exit = %d: %s", code, errOut)
	}
	if warm != want {
		t.Errorf("warm-cache report differs from uncached:\n--- want ---\n%s--- got ---\n%s", want, warm)
	}
	st := core.MemoStats().Disk
	if st.Hits == 0 {
		t.Fatal("warm run served no disk hits")
	}
	if st.Stored != 0 {
		t.Fatalf("warm run re-published %d cells (all should have hit)", st.Stored)
	}
	if st.Refused != 0 {
		t.Fatalf("warm run refused %d entries", st.Refused)
	}

	// -no-cache beats both the flag default and the warm directory.
	core.ResetMemo()
	code, off, _ := runCmd(sweepArgs("-cache-dir", cacheDir, "-no-cache")...)
	if code != 0 {
		t.Fatal("no-cache sweep failed")
	}
	if off != want {
		t.Error("-no-cache report differs")
	}
	if core.ResultCache() != nil {
		t.Fatal("-no-cache left a cache attached")
	}
}

func TestCacheDirEnvDefault(t *testing.T) {
	resetCaches(t)
	cacheDir := filepath.Join(t.TempDir(), "env-cache")
	t.Setenv("ASMP_CACHE_DIR", cacheDir)
	code, _, errOut := runCmd(sweepArgs()...)
	if code != 0 {
		t.Fatalf("sweep exit = %d: %s", code, errOut)
	}
	if got := cacheEntries(t, cacheDir); got == 0 {
		t.Fatal("$ASMP_CACHE_DIR was not picked up as the -cache-dir default")
	}
	// And -no-cache overrides the environment too.
	core.ResetMemo()
	if code, _, _ := runCmd(sweepArgs("-no-cache")...); code != 0 {
		t.Fatal("-no-cache sweep failed")
	}
	if core.ResultCache() != nil {
		t.Fatal("-no-cache did not override $ASMP_CACHE_DIR")
	}
}

func TestShardedSweepOverWarmCacheByteIdentical(t *testing.T) {
	resetCaches(t)
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")

	// Unsharded reference report and journal (sequential journal order
	// is the grid order the supervisor appends in).
	code, want, _ := runCmd(shard3x3Args()...)
	if code != 0 {
		t.Fatalf("reference exit = %d", code)
	}
	refJ := filepath.Join(dir, "ref.jsonl")
	if code, _, errOut := runCmd(shard3x3Args("-journal", refJ, "-workers", "1")...); code != 0 {
		t.Fatalf("reference journal exit = %d: %s", code, errOut)
	}
	refRaw, err := os.ReadFile(refJ)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-warm the cache with an unsharded run, then shard over it.
	// Every worker is a separate process (the supervisor re-execs this
	// test binary) that inherits the cache via $ASMP_CACHE_DIR, so the
	// cells they serve are genuine cross-process hits.
	core.ResetMemo()
	if code, _, errOut := runCmd(shard3x3Args("-cache-dir", cacheDir)...); code != 0 {
		t.Fatalf("pre-warm exit = %d: %s", code, errOut)
	}
	warmed := cacheEntries(t, cacheDir)
	if warmed == 0 {
		t.Fatal("pre-warm published nothing")
	}

	core.ResetMemo()
	j := filepath.Join(dir, "sharded.jsonl")
	code, got, errOut := runCmd(shard3x3Args("-journal", j, "-shards", "2", "-cache-dir", cacheDir)...)
	if code != 0 {
		t.Fatalf("sharded warm sweep exit = %d: %s", code, errOut)
	}
	if got != want {
		t.Errorf("sharded warm-cache report differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	// Each worker process reports its own counters on forwarded stderr:
	// the cross-process hits the warm cache promised actually happened.
	if !strings.Contains(errOut, "cache hits=") {
		t.Errorf("sharded sweep stderr carries no worker cache counters:\n%s", errOut)
	}
	raw, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(refRaw) {
		t.Error("sharded warm-cache journal differs from the unsharded reference")
	}
	// The workers only read: no new cells were published over the warm
	// set (same grid, same identities).
	if after := cacheEntries(t, cacheDir); after != warmed {
		t.Errorf("sharded run changed the cache population: %d -> %d entries", warmed, after)
	}
}

func TestCacheFlagValidationAndUsage(t *testing.T) {
	// An unopenable cache dir is a startup error, not a silent bypass.
	occupied := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	resetCaches(t)
	code, _, errOut := runCmd(sweepArgs("-cache-dir", filepath.Join(occupied, "sub"))...)
	if code != 2 || !strings.Contains(errOut, "resultcache") {
		t.Errorf("unopenable -cache-dir: exit = %d, stderr = %s", code, errOut)
	}
	// The flags are documented.
	_, _, usage := runCmd("-h")
	for _, flag := range []string{"-cache-dir", "-no-cache", "-cache-max-mb"} {
		if !strings.Contains(usage, flag) {
			t.Errorf("usage lacks %s:\n%s", flag, usage)
		}
	}
}
