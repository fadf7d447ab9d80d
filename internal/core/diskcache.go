package core

import (
	"strconv"
	"strings"

	"asmp/internal/resultcache"
)

// Disk result cache (internal/resultcache) — the cell table's
// cross-process extension. The attached cache lives in the table
// (memo.go) and makes it read-through/write-through: a cell's leader
// consults the disk before simulating and publishes every Result it
// simulates, so shard workers, server restarts and back-to-back CLI
// invocations warm-hit cells an earlier process already paid for.
//
// The placement keeps disk I/O off the common paths: completed cells
// never touch the disk, and concurrent cold callers wait on one leader
// that does a single disk read for all of them. The contract is
// unchanged from the table's (DESIGN.md §12): a verified disk hit is
// bit-identical to a fresh simulation, and every other disk outcome —
// miss, refusal, I/O error — falls back to simulating, so attaching a
// cache can never alter output bytes.

// SetResultCache attaches (or, with nil, detaches) the process-wide
// disk result cache that Execute and ExecuteSafe read and write
// through. Detached is the default: without a cache every process
// simulates its own cells, exactly as before.
func SetResultCache(c *resultcache.Cache) {
	cells.mu.Lock()
	defer cells.mu.Unlock()
	cells.disk = c
}

// AttachResultCache opens a cache at dir (creating it as needed,
// capped at maxMB mebibytes, 0 = uncapped) and attaches it. An empty
// dir detaches.
func AttachResultCache(dir string, maxMB int) error {
	if dir == "" {
		SetResultCache(nil)
		return nil
	}
	c, err := resultcache.Open(dir, int64(maxMB)<<20)
	if err != nil {
		return err
	}
	SetResultCache(c)
	return nil
}

// ResultCache returns the attached cache, or nil.
func ResultCache() *resultcache.Cache {
	cells.mu.Lock()
	defer cells.mu.Unlock()
	return cells.disk
}

// ResultCacheDir returns the attached cache's directory, or "".
// The shard supervisor exports it (resultcache.EnvDir) to re-exec'd
// workers so a respawned worker warm-hits its predecessor's cells.
func ResultCacheDir() string {
	if c := ResultCache(); c != nil {
		return c.Dir()
	}
	return ""
}

// cacheKeyFor derives a memoKey's content address from its canonical
// description (cellDesc).
func cacheKeyFor(key memoKey) resultcache.Key {
	return resultcache.KeyOf(cellDesc(key))
}

// CellKey renders the canonical identity of the cell spec runs — the
// description its cell-table entry and disk-cache address derive from
// — or "" when spec is not memoizable at all (memoKeyFor). asmp-serve
// coalesces POST /v1/run requests by it.
func CellKey(spec RunSpec) string {
	key, ok := memoKeyFor(spec)
	if !ok {
		return ""
	}
	return cellDesc(key)
}

// cellDesc renders a memoKey's canonical identity string. Every field
// of every component is rendered explicitly — workload identity,
// config, each scheduler option, seed, fault plan, each watchdog limit
// — so the string (and therefore the address) changes exactly when an
// input that reaches the simulation changes. Floats render in hex float form: exact,
// locale-free, and distinguishing every bit pattern the digest would.
func cellDesc(key memoKey) string {
	var b strings.Builder
	field := func(s string) {
		// Length-prefix each field so field boundaries cannot be forged
		// by crafted contents (an Identity containing "|").
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
		b.WriteByte('|')
	}
	f64 := func(v float64) { field(strconv.FormatFloat(v, 'x', -1, 64)) }
	field("cell/v1")
	field(key.workload)
	field(key.config)
	field(key.sched.Policy.String())
	f64(float64(key.sched.Timeslice))
	f64(float64(key.sched.BalanceInterval))
	f64(key.sched.MigrationCost)
	field(strconv.FormatBool(key.sched.RandomWakeups))
	field(strconv.Itoa(key.sched.StealThreshold))
	field(strconv.FormatBool(key.sched.NoForcedMigration))
	field(strconv.FormatUint(key.seed, 10))
	field(key.fault)
	f64(float64(key.limits.MaxVirtualTime))
	field(strconv.Itoa(key.limits.MaxEvents))
	field(strconv.FormatBool(key.limits.DetectDeadlock))
	return b.String()
}
