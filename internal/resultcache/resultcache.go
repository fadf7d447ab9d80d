// Package resultcache is the disk-backed, content-addressed store for
// memoizable cell results — the cross-process extension of core's
// in-memory cell memo. A cell is a pure function of its full RunSpec
// identity, so its Result (digest included) can be published once and
// replayed by any later process: shard workers respawned after a
// crash, a restarted asmp-serve, or back-to-back CLI invocations all
// warm-hit cells an earlier process already simulated.
//
// The contract is the memo's, extended across processes: a cache can
// never change what a caller observes. Four outcomes exist, and only
// four (DESIGN.md §12):
//
//   - hit: the entry decodes, its checksum matches its stored bytes,
//     its stored key matches the request, and refolding the stored
//     metrics onto the stored pre-metrics digest state reproduces the
//     stored run digest exactly — the Result is served, bit-identical
//     to a fresh run;
//   - miss: no entry (or a 64-bit-address collision whose stored key
//     differs, or an unreadable file) — the caller simulates and
//     publishes;
//   - refused: the entry is corrupt (torn, bit-flipped, bad version).
//     It is set aside as .damaged (the journal discipline: evidence is
//     never clobbered, monotonic suffixes), the refusal is typed
//     (*DamagedError), and the caller re-simulates — corrupt bytes
//     never reach any output;
//   - bypassed: no cache is attached (-no-cache, or no -cache-dir /
//     ASMP_CACHE_DIR), or the run is non-memoizable (Tracer/Observe
//     hooks, no workload Identity) — the store is never consulted.
//
// Publication is atomic: entries are written to a private temp file in
// the cache directory, fsync'd, and renamed into place, so a reader
// never observes a half-written entry under its final name and N
// processes racing to publish the same cell all rename byte-identical
// content (the serialization is canonical) — last one wins, every
// reader verifies.
package resultcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"asmp/internal/digest"
	"asmp/internal/journal"
	"asmp/internal/workload"
)

// Version is the entry schema version; bump on incompatible changes.
// Readers refuse entries with any other version (set aside, typed) —
// a cache directory is a cache, not an archive, so an entry from a
// different schema era is re-simulated and republished.
const Version = 1

// entryExt is the filename extension of a published entry.
const entryExt = ".cell"

// Key addresses one memoizable cell. Desc is the canonical rendering
// of the cell's full identity (every input that reaches the
// simulation); Sum is its 64-bit content address, the entry filename.
// Desc is stored inside the entry and compared on read, so a 64-bit
// collision degrades to a miss, never a wrong Result.
type Key struct {
	// Sum is the content address: the digest of Desc.
	Sum digest.Digest
	// Desc is the canonical identity string the address was derived
	// from.
	Desc string
}

// KeyOf derives the content-addressed Key for a canonical identity
// string.
func KeyOf(desc string) Key {
	return Key{Sum: digest.OfBytes([]byte(desc)), Desc: desc}
}

// DamagedError reports a cache entry that could not be trusted: torn,
// bit-flipped, checksum-mismatched, digest-inconsistent, or written by
// an unknown schema version. The entry has been (or could not be) set
// aside; either way the caller re-simulates and the corrupt bytes
// never reach any output.
type DamagedError struct {
	// Path is the entry file the damage was found in.
	Path string
	// Reason is the human-readable explanation.
	Reason string
	// SetAside is where the damaged entry went (path + ".damaged",
	// suffixed monotonically), or empty when the set-aside itself
	// failed (SetAsideErr then says why).
	SetAside string
	// SetAsideErr is the error that prevented the set-aside, if any.
	SetAsideErr error
}

func (e *DamagedError) Error() string {
	return fmt.Sprintf("resultcache: %s: %s", e.Path, e.Reason)
}

// Stats are a cache's cumulative counters. All monotone except via
// ResetStats.
type Stats struct {
	// Hits counts lookups served from a verified entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found no usable entry for a
	// non-damage reason: absent, unreadable, or an address collision.
	Misses uint64 `json:"misses"`
	// Refused counts corrupt entries set aside as .damaged (verify-on-
	// read failures). Every refusal re-simulates; none alters output.
	Refused uint64 `json:"refused"`
	// Stored counts entries published.
	Stored uint64 `json:"stored"`
	// StoreErrors counts publishes that failed (best-effort: a failed
	// store never fails the run).
	StoreErrors uint64 `json:"storeErrors"`
	// Evicted counts entries removed by the size-capped GC.
	Evicted uint64 `json:"evicted"`
}

// Cache is one cache directory. Safe for concurrent use by any number
// of goroutines and processes.
type Cache struct {
	dir      string
	maxBytes int64

	hits, misses, refused atomic.Uint64
	stored, storerrs      atomic.Uint64
	evicted               atomic.Uint64
	sinceGC               atomic.Uint64
}

// gcEvery is how many stores elapse between size-cap GC passes (the
// cap is also enforced once at Open).
const gcEvery = 64

// Open prepares a cache at dir, creating the directory as needed.
// maxBytes caps the directory's total entry size (0 = uncapped); the
// cap is enforced LRU-by-mtime at Open and every gcEvery stores.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	c := &Cache{dir: dir, maxBytes: maxBytes}
	if _, err := c.GC(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// EntryPath returns where key's entry lives (whether or not it
// exists).
func (c *Cache) EntryPath(key Key) string {
	return filepath.Join(c.dir, key.Sum.String()+entryExt)
}

// Stats returns the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Refused:     c.refused.Load(),
		Stored:      c.stored.Load(),
		StoreErrors: c.storerrs.Load(),
		Evicted:     c.evicted.Load(),
	}
}

// ResetStats zeroes the counters (benchmarks measuring cold/warm
// behaviour use it; entries on disk are untouched).
func (c *Cache) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.refused.Store(0)
	c.stored.Store(0)
	c.storerrs.Store(0)
	c.evicted.Store(0)
}

// entry is the on-disk schema: the cell's identity, its metrics in
// journal form (non-finite-safe, canonical JSON), the pre-metrics
// digest state, the run digest, and a line checksum. Entries are
// sealed and checked by the journal's codec (journal.Seal and
// journal.Sealed), so the checksum covers the stored bytes.
// json.Marshal renders map keys sorted, so serialization is
// canonical: every process publishing the same cell writes the same
// bytes.
type entry struct {
	Kind string `json:"kind"`
	V    int    `json:"v"`
	// Key is the canonical identity string (Key.Desc).
	Key string `json:"key"`
	// Metric/Value/Higher/Extras mirror workload.Result, in journal
	// form so non-finite metrics survive the round trip byte-exactly.
	Metric string         `json:"metric,omitempty"`
	Value  journal.Float  `json:"value"`
	Higher bool           `json:"higher,omitempty"`
	Extras journal.Extras `json:"extras,omitempty"`
	// Events is the pre-metrics digest state; Digest is the run
	// digest. Verify-on-read refolds Metric/Value/Higher/Extras onto
	// Events and requires the result to equal Digest.
	Events string `json:"events"`
	Digest string `json:"digest"`
	// Sum is the entry checksum (FNV-1a of the serialization with Sum
	// empty). It must stay the last field: journal.Seal splices it in
	// after the others.
	Sum string `json:"sum,omitempty"`
}

// decode parses and fully verifies one entry: strict JSON, schema
// version, checksum over the stored bytes (one trailing newline
// aside), and the digest refold. It returns a reason string on any
// failure — the caller turns it into a refusal.
func decode(data []byte) (*entry, workload.Result, string) {
	var e entry
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, workload.Result{}, fmt.Sprintf("undecodable entry: %v", err)
	}
	if dec.More() {
		return nil, workload.Result{}, "trailing data after entry"
	}
	if e.Kind != "cell" {
		return nil, workload.Result{}, fmt.Sprintf("unknown entry kind %q", e.Kind)
	}
	if e.V != Version {
		return nil, workload.Result{}, fmt.Sprintf("schema v%d, this build reads v%d", e.V, Version)
	}
	if e.Sum == "" {
		return nil, workload.Result{}, "entry has no checksum"
	}
	if !journal.Sealed(bytes.TrimSuffix(data, []byte{'\n'})) {
		return nil, workload.Result{}, "entry checksum mismatch"
	}
	ev, err := digest.Parse(e.Events)
	if err != nil {
		return nil, workload.Result{}, fmt.Sprintf("bad events state: %v", err)
	}
	d, err := digest.Parse(e.Digest)
	if err != nil {
		return nil, workload.Result{}, fmt.Sprintf("bad run digest: %v", err)
	}
	res := workload.Result{
		Metric:         e.Metric,
		Value:          float64(e.Value),
		HigherIsBetter: e.Higher,
		Extras:         e.Extras.Floats(),
		Digest:         d,
		Events:         ev,
	}
	// The integrity core: recompute the run digest from the stored
	// metrics and the stored pre-metrics state. Any drift in either —
	// a flipped bit in a value, a dropped extra, a forged digest —
	// breaks the equation and the entry is refused.
	h := digest.NewFrom(ev)
	h.Result(res.Metric, res.Value, res.HigherIsBetter, res.Extras)
	if h.Sum() != d {
		return nil, workload.Result{}, fmt.Sprintf("run digest mismatch: stored %s, metrics refold to %s", d, h.Sum())
	}
	return &e, res, ""
}

// Get looks key up: (result, true) on a verified hit, (zero, false)
// otherwise. GetChecked distinguishes the miss/refusal outcomes.
func (c *Cache) Get(key Key) (workload.Result, bool) {
	res, ok, _ := c.GetChecked(key)
	return res, ok
}

// GetChecked is Get with the refusal surfaced: err is a *DamagedError
// when the entry was corrupt (it has already been set aside), nil on
// a hit or plain miss. The contract either way: ok=false means the
// caller simulates, so no lookup outcome can ever alter output.
func (c *Cache) GetChecked(key Key) (res workload.Result, ok bool, err error) {
	path := c.EntryPath(key)
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		// Absent or unreadable: a miss either way — an I/O error is not
		// evidence of corruption, and refusing to simulate over it would
		// let a flaky disk fail a sweep the memo contract says succeeds.
		c.misses.Add(1)
		return workload.Result{}, false, nil
	}
	e, res, reason := decode(data)
	if reason != "" {
		c.refused.Add(1)
		derr := &DamagedError{Path: path, Reason: reason}
		if aside, aerr := journal.SetAside(path); aerr != nil {
			derr.SetAsideErr = aerr
		} else {
			derr.SetAside = aside
		}
		return workload.Result{}, false, derr
	}
	if e.Key != key.Desc {
		// A 64-bit address collision: the entry is someone else's valid
		// cell. Leave it; this lookup is a miss (and the publish that
		// follows will overwrite it — the address space is shared, the
		// loser re-simulates next time).
		c.misses.Add(1)
		return workload.Result{}, false, nil
	}
	c.hits.Add(1)
	// LRU recency: touch the entry so the size-capped GC evicts
	// least-recently-used entries, not merely oldest-published. Best
	// effort — a failed touch costs eviction order, never correctness.
	now := time.Now() //asmp:allow walltime cache LRU recency touch; ordering hint for GC only, never simulation state or output
	_ = os.Chtimes(path, now, now)
	return res, true, nil
}

// Put publishes res under key. Best-effort by contract: a failed
// publish is counted and forgotten, because the caller already holds
// the Result and the next process can always re-simulate. Results
// without an Events state (not produced by core's execution path)
// cannot be verified on read and are never published.
func (c *Cache) Put(key Key, res workload.Result) {
	if res.Events == 0 || res.Digest == 0 {
		return
	}
	e := &entry{
		Kind:   "cell",
		V:      Version,
		Key:    key.Desc,
		Metric: res.Metric,
		Value:  journal.Float(res.Value),
		Higher: res.HigherIsBetter,
		Extras: journal.MakeExtras(res.Extras),
		Events: res.Events.String(),
		Digest: res.Digest.String(),
	}
	line, err := journal.Seal(e)
	if err != nil {
		c.storerrs.Add(1)
		return
	}
	if err := c.publish(c.EntryPath(key), append(line, '\n')); err != nil {
		c.storerrs.Add(1)
		return
	}
	c.stored.Add(1)
	if c.sinceGC.Add(1)%gcEvery == 0 {
		// Best-effort size enforcement; a failed pass only defers
		// eviction to the next one.
		_, _ = c.GC()
	}
}

// publish writes line to a private temp file and renames it into
// place: readers only ever see complete entries, and concurrent
// publishers of the same cell (whose serializations are byte-equal)
// overwrite each other harmlessly.
func (c *Cache) publish(path string, line []byte) error {
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if _, err := tmp.Write(line); err != nil {
		return fail(err)
	}
	// Sync before rename so a crash cannot leave a complete-looking
	// but empty entry under the final name. (If it somehow does, the
	// verify-on-read refuses it — this just keeps refusals rare.)
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// EnvDir is the environment variable naming the shared cache
// directory; the CLIs use it as the -cache-dir default, and the shard
// supervisor propagates it to re-exec'd workers so a respawned worker
// warm-hits cells its dead predecessor already published.
const EnvDir = "ASMP_CACHE_DIR"

// EnvMaxMB is the environment variable capping the cache size in MiB
// (the -cache-max-mb default; 0 or unset = uncapped).
const EnvMaxMB = "ASMP_CACHE_MAX_MB"

// DirFromEnv returns the cache directory named by EnvDir ("" = none).
func DirFromEnv() string { return os.Getenv(EnvDir) }

// MaxMBFromEnv returns the size cap named by EnvMaxMB, in MiB.
// Unset, empty or unparsable values mean 0 (uncapped) — a bad cap
// must never disable caching or fail a run.
func MaxMBFromEnv() int {
	v := os.Getenv(EnvMaxMB)
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
