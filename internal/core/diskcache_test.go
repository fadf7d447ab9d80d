package core

import (
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"asmp/internal/cpu"
	"asmp/internal/resultcache"
	"asmp/internal/sched"
)

// withDiskCache attaches a fresh disk cache for one test, restoring
// the detached default (and a cold memo) afterwards so tests stay
// independent.
func withDiskCache(t *testing.T) *resultcache.Cache {
	t.Helper()
	ResetMemo()
	c, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	SetResultCache(c)
	t.Cleanup(func() {
		SetResultCache(nil)
		ResetMemo()
	})
	return c
}

func TestDiskCacheSurvivesMemoReset(t *testing.T) {
	c := withDiskCache(t)
	var execs atomic.Int64
	spec := memoSpec("disk-warm", &execs)

	first := Execute(spec)
	if got := execs.Load(); got != 1 {
		t.Fatalf("cold executions = %d, want 1", got)
	}
	if first.Events == 0 {
		t.Fatal("executed result carries no pre-metrics digest state")
	}
	if st := c.Stats(); st.Stored != 1 {
		t.Fatalf("disk stored = %d, want 1 (write-through beside the memo)", st.Stored)
	}

	// A memo reset models a new process: the disk entry must serve the
	// cell without re-simulating, bit-identically.
	ResetMemo()
	second := Execute(spec)
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions after memo reset = %d, want 1 (disk hit must not re-simulate)", got)
	}
	if second.Digest != first.Digest || second.Events != first.Events ||
		second.Value != first.Value || second.Metric != first.Metric ||
		second.Extra("probe-extra") != first.Extra("probe-extra") {
		t.Fatalf("disk hit differs from fresh run:\n fresh %+v\n disk  %+v", first, second)
	}
	if st := MemoStats(); st.Disk.Hits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.Disk.Hits)
	}

	// And the disk hit repopulated the memo: a third call touches
	// neither the simulator nor the disk.
	before := c.Stats().Hits
	Execute(spec)
	if got := execs.Load(); got != 1 {
		t.Fatal("memo repopulation failed: third call re-simulated")
	}
	if c.Stats().Hits != before {
		t.Fatal("third call went to disk despite a warm memo")
	}
}

func TestDiskCacheSharedByBothExecutePaths(t *testing.T) {
	withDiskCache(t)
	var execs atomic.Int64
	spec := memoSpec("disk-paths", &execs)
	Execute(spec)
	ResetMemo()
	if _, err := ExecuteSafe(spec); err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (ExecuteSafe must read Execute's disk entry)", got)
	}
	ResetMemo()
	Execute(spec)
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (Execute must read the shared entry)", got)
	}
}

func TestDiskCacheCorruptionReexecutesIdentically(t *testing.T) {
	c := withDiskCache(t)
	var execs atomic.Int64
	spec := memoSpec("disk-corrupt", &execs)
	first := Execute(spec)

	key, ok := memoKeyFor(spec)
	if !ok {
		t.Fatal("spec unexpectedly non-memoizable")
	}
	path := c.EntryPath(cacheKeyFor(key))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("published entry missing: %v", err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetMemo()
	second := Execute(spec)
	if got := execs.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (corrupt entry must re-simulate)", got)
	}
	if second.Digest != first.Digest || second.Value != first.Value {
		t.Fatalf("re-simulation after refusal diverged: %+v vs %+v", second, first)
	}
	st := MemoStats()
	if st.Disk.Refused != 1 {
		t.Fatalf("disk refused = %d, want 1", st.Disk.Refused)
	}
	// The re-simulation re-published a good entry; the damage is aside.
	ResetMemo()
	Execute(spec)
	if got := execs.Load(); got != 2 {
		t.Fatal("re-published entry did not serve the next process")
	}
	if _, err := os.Stat(path + ".damaged"); err != nil {
		t.Fatalf("damaged entry not set aside: %v", err)
	}
}

func TestDiskCacheBypassedForNonMemoizable(t *testing.T) {
	c := withDiskCache(t)
	var execs atomic.Int64
	spec := memoSpec("disk-bypass", &execs)
	spec.Observe = func(*sched.Scheduler) {}
	Execute(spec)
	Execute(spec)
	if got := execs.Load(); got != 2 {
		t.Fatalf("observed executions = %d, want 2 (hooked runs bypass all caches)", got)
	}
	st := c.Stats()
	if st.Stored != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disk cache touched by non-memoizable runs: %+v", st)
	}
}

func TestDiskCacheFailuresNeverStored(t *testing.T) {
	c := withDiskCache(t)
	var execs atomic.Int64
	spec := RunSpec{
		Workload: panicProbe{execs: &execs},
		Config:   cpu.MustParseConfig("4f-0s"),
		Sched:    sched.Defaults(sched.PolicyNaive),
		Seed:     1,
	}
	if _, err := ExecuteSafe(spec); err == nil {
		t.Fatal("panicProbe unexpectedly succeeded")
	}
	if st := c.Stats(); st.Stored != 0 {
		t.Fatalf("a failed run was published to disk (stored=%d)", st.Stored)
	}
}

// TestCacheKeyDiscriminates requires every leaf field of memoKey —
// each scheduler option and each watchdog limit included — to reach
// the disk address on its own. The variants are derived by reflection,
// so a field added to memoKey, sched.Options or sim.Limits without a
// matching cacheKeyFor line fails here instead of silently sharing disk
// entries with its default.
func TestCacheKeyDiscriminates(t *testing.T) {
	var execs atomic.Int64
	base, ok := memoKeyFor(memoSpec("key-disc", &execs))
	if !ok {
		t.Fatal("spec non-memoizable")
	}
	seen := map[string]string{cacheKeyFor(base).Desc: "base"}
	distinct := func(name string, k memoKey) {
		t.Helper()
		d := cacheKeyFor(k).Desc
		if prev, dup := seen[d]; dup {
			t.Fatalf("variant %s collides with %s: %q", name, prev, d)
		}
		seen[d] = name
	}
	leaves := 0
	k := base
	forEachLeaf(reflect.ValueOf(&k).Elem(), "memoKey", func(name string, f reflect.Value) {
		leaves++
		// memoKey's fields are unexported; write through their address.
		v := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		bump(v)
		distinct(name, k)
		v.Set(old)
	})
	if leaves < 14 { // 4 in memoKey, 7 in sched.Options, 3 in sim.Limits
		t.Fatalf("walked %d leaf fields, want every field of memoKey, sched.Options and sim.Limits", leaves)
	}
	// Field contents must not forge boundaries: an identity that embeds
	// the canonical separator still gets its own address.
	forged := base
	forged.workload += "|1:x"
	distinct("forged separator", forged)
	// Same key, same address — the desc (and digest) are pure.
	if cacheKeyFor(base) != cacheKeyFor(base) {
		t.Fatal("cacheKeyFor is not deterministic")
	}
}

// forEachLeaf calls f with every non-struct field reachable from the
// struct v, naming each by its dotted path.
func forEachLeaf(v reflect.Value, path string, f func(name string, leaf reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		field, name := v.Field(i), path+"."+v.Type().Field(i).Name
		if field.Kind() == reflect.Struct {
			forEachLeaf(field, name, f)
			continue
		}
		f(name, field)
	}
}

// bump changes a settable leaf to a different value of its kind.
func bump(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "~")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	default:
		panic("bump: unsupported leaf kind " + v.Kind().String())
	}
}

func TestAttachResultCacheLifecycle(t *testing.T) {
	dir := t.TempDir()
	if err := AttachResultCache(dir, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetResultCache(nil) })
	if got := ResultCacheDir(); got != dir {
		t.Fatalf("ResultCacheDir = %q, want %q", got, dir)
	}
	if err := AttachResultCache("", 0); err != nil {
		t.Fatal(err)
	}
	if ResultCache() != nil || ResultCacheDir() != "" {
		t.Fatal("empty dir did not detach the cache")
	}
	// Unopenable directory: attachment fails, the previous state stays.
	file := dir + "/occupied"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AttachResultCache(file+"/sub", 0); err == nil {
		t.Fatal("attach to an unopenable dir succeeded")
	}
	if ResultCache() != nil {
		t.Fatal("failed attach left a cache installed")
	}
}

func TestJournalReplayedResultsNeverPublished(t *testing.T) {
	c := withDiskCache(t)
	// A Result that did not come from executeOn has no Events state;
	// storing it must be refused by the cache (it could never verify).
	var execs atomic.Int64
	key, _ := memoKeyFor(memoSpec("replayed", &execs))
	res := Execute(memoSpec("replayed", &execs))
	res.Events = 0
	c.Put(cacheKeyFor(key), res)
	if st := c.Stats(); st.Stored != 1 { // just the Execute's own publish
		t.Fatalf("stored = %d, want 1 (the Events-less store must be skipped)", st.Stored)
	}
	if st := c.Stats(); st.StoreErrors != 0 {
		t.Fatalf("storeErrors = %d, want 0 (skip, not error)", st.StoreErrors)
	}
}
