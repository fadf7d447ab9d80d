package resultcache_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"asmp/internal/digest"
	"asmp/internal/resultcache"
	"asmp/internal/workload"
)

// stressWorkerEnv diverts the test binary into publish-worker mode:
// the multi-process stress test re-execs itself N times to race real
// processes at publishing the same cell (TestMain).
const stressWorkerEnv = "ASMP_CACHE_STRESS_WORKER"

func TestMain(m *testing.M) {
	if dir := os.Getenv(stressWorkerEnv); dir != "" {
		os.Exit(stressWorkerMain(dir))
	}
	os.Exit(m.Run())
}

// fakeResult builds a Result whose Digest/Events pair satisfies the
// verify-on-read equation, exactly as core.executeOn would: Events is
// the digest state before the metrics fold, Digest the state after.
func fakeResult(id string) workload.Result {
	h := digest.New()
	h.Identity("fake", "4f-0s", "naive", 7)
	h.String(id) // stands in for the event stream
	res := workload.Result{
		Metric:         "throughput (ops/s)",
		Value:          12345.678,
		HigherIsBetter: true,
		Extras: map[string]float64{
			"p99":   1.25,
			"surge": math.Inf(1),
			"hole":  math.NaN(),
		},
	}
	res.Events = h.Sum()
	h.Result(res.Metric, res.Value, res.HigherIsBetter, res.Extras)
	res.Digest = h.Sum()
	return res
}

// sameResult compares two Results including NaN extras (reflect.DeepEqual
// treats NaN != NaN).
func sameResult(a, b workload.Result) bool {
	if a.Metric != b.Metric || a.HigherIsBetter != b.HigherIsBetter ||
		a.Digest != b.Digest || a.Events != b.Events ||
		math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
		len(a.Extras) != len(b.Extras) {
		return false
	}
	for k, v := range a.Extras {
		w, ok := b.Extras[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func openCache(t *testing.T) *resultcache.Cache {
	t.Helper()
	c, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openCache(t)
	key := resultcache.KeyOf("cell-roundtrip")
	want := fakeResult("roundtrip")
	c.Put(key, want)

	got, ok, err := c.GetChecked(key)
	if err != nil || !ok {
		t.Fatalf("GetChecked = (ok=%v, err=%v), want verified hit", ok, err)
	}
	if !sameResult(got, want) {
		t.Fatalf("round trip altered the result:\n got %+v\nwant %+v", got, want)
	}
	st := c.Stats()
	if st.Stored != 1 || st.Hits != 1 || st.Misses != 0 || st.Refused != 0 {
		t.Fatalf("stats = %+v, want stored=1 hits=1", st)
	}
}

func TestGetMissesOnAbsentEntry(t *testing.T) {
	c := openCache(t)
	if _, ok, err := c.GetChecked(resultcache.KeyOf("never-stored")); ok || err != nil {
		t.Fatalf("absent entry: (ok=%v, err=%v), want plain miss", ok, err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestPutSkipsUnverifiableResults(t *testing.T) {
	c := openCache(t)
	key := resultcache.KeyOf("no-events")
	res := fakeResult("no-events")
	res.Events = 0 // journal-replayed results carry no pre-metrics state
	c.Put(key, res)
	if _, err := os.Stat(c.EntryPath(key)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unverifiable result was published (stat err=%v)", err)
	}
	if st := c.Stats(); st.Stored != 0 {
		t.Fatalf("stored = %d, want 0", st.Stored)
	}
}

func TestAddressCollisionDegradesToMiss(t *testing.T) {
	c := openCache(t)
	key := resultcache.KeyOf("collision-victim")
	c.Put(key, fakeResult("collision-victim"))

	// Same 64-bit address, different identity: the stored key-desc
	// comparison must turn this into a miss, never a wrong Result and
	// never a refusal (the entry is valid — it is someone else's).
	imposter := resultcache.Key{Sum: key.Sum, Desc: "a different cell entirely"}
	res, ok, err := c.GetChecked(imposter)
	if ok || err != nil {
		t.Fatalf("collision lookup = (res=%+v ok=%v err=%v), want plain miss", res, ok, err)
	}
	// The victim's entry survives untouched.
	if _, ok, _ := c.GetChecked(key); !ok {
		t.Fatal("collision miss damaged the resident entry")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Refused != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 0 refusals", st)
	}
}

func TestCorruptEntryRefusedTypedAndSetAside(t *testing.T) {
	c := openCache(t)
	key := resultcache.KeyOf("corrupt-me")
	c.Put(key, fakeResult("corrupt-me"))
	path := c.EntryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ok, gerr := c.GetChecked(key)
	if ok {
		t.Fatal("corrupt entry served as a hit")
	}
	var de *resultcache.DamagedError
	if !errors.As(gerr, &de) {
		t.Fatalf("refusal error = %v (%T), want *resultcache.DamagedError", gerr, gerr)
	}
	if de.SetAside == "" {
		t.Fatalf("refusal did not set the entry aside: %+v", de)
	}
	aside, err := os.ReadFile(de.SetAside)
	if err != nil {
		t.Fatalf("set-aside file unreadable: %v", err)
	}
	if string(aside) != string(data) {
		t.Fatal("set-aside file does not preserve the damaged bytes")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("damaged entry still present under its cache name after set-aside")
	}
	// With the damage quarantined, the next lookup is a plain miss and
	// a re-publish restores service.
	if _, ok, err := c.GetChecked(key); ok || err != nil {
		t.Fatalf("post-refusal lookup = (ok=%v, err=%v), want plain miss", ok, err)
	}
	c.Put(key, fakeResult("corrupt-me"))
	if _, ok, _ := c.GetChecked(key); !ok {
		t.Fatal("re-publish after refusal did not restore the entry")
	}
	if st := c.Stats(); st.Refused != 1 {
		t.Fatalf("refused = %d, want 1", st.Refused)
	}
}

// TestEquivalentEditRefused: an edit that decodes to the same entry
// passes the digest refold, so only a checksum over the stored bytes
// (not over a re-marshal of the decoded entry) can refuse it. It must
// be refused and set aside like any other damage.
func TestEquivalentEditRefused(t *testing.T) {
	c := openCache(t)
	key := resultcache.KeyOf("edit-me")
	path := c.EntryPath(key)
	for _, edit := range []struct{ from, to string }{
		{`"value":12345.678`, `"value":12345.6780`},
		{`"value":`, `"value": `},
	} {
		c.Put(key, fakeResult("edit-me"))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := strings.Replace(string(data), edit.from, edit.to, 1)
		if edited == string(data) {
			t.Fatalf("test setup: %q not found in %s", edit.from, data)
		}
		if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok, err := c.GetChecked(key)
		var de *resultcache.DamagedError
		if ok || !errors.As(err, &de) {
			t.Fatalf("%q -> %q: (ok=%v, err=%v), want a typed refusal", edit.from, edit.to, ok, err)
		}
		if !strings.Contains(de.Reason, "checksum") {
			t.Errorf("%q -> %q: refusal reason %q does not name the checksum", edit.from, edit.to, de.Reason)
		}
		if aside, err := os.ReadFile(de.SetAside); err != nil || string(aside) != edited {
			t.Errorf("%q -> %q: edited entry not set aside intact (err=%v)", edit.from, edit.to, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%q -> %q: edited entry still under its cache name", edit.from, edit.to)
		}
	}
}

func TestSchemaVersionRefused(t *testing.T) {
	c := openCache(t)
	key := resultcache.KeyOf("schema-drift")
	entry := fmt.Sprintf(`{"kind":"cell","v":%d,"key":"schema-drift","value":1,"events":"%016x","digest":"%016x","sum":"%016x"}`,
		resultcache.Version+1, 1, 2, 3)
	if err := os.WriteFile(c.EntryPath(key), []byte(entry+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := c.GetChecked(key)
	var de *resultcache.DamagedError
	if ok || !errors.As(err, &de) {
		t.Fatalf("future-schema entry: (ok=%v, err=%v), want typed refusal", ok, err)
	}
	if !strings.Contains(de.Reason, "schema") {
		t.Fatalf("refusal reason %q does not name the schema version", de.Reason)
	}
}

func TestDamagedSetAsideIsMonotonic(t *testing.T) {
	c := openCache(t)
	key := resultcache.KeyOf("repeat-offender")
	var asides []string
	for i := 0; i < 3; i++ {
		c.Put(key, fakeResult("repeat-offender"))
		path := c.EntryPath(key)
		if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := c.GetChecked(key)
		var de *resultcache.DamagedError
		if !errors.As(err, &de) || de.SetAside == "" {
			t.Fatalf("round %d: err = %v, want set-aside refusal", i, err)
		}
		asides = append(asides, de.SetAside)
	}
	seen := map[string]bool{}
	for _, a := range asides {
		if seen[a] {
			t.Fatalf("set-aside name %s reused: earlier evidence clobbered", a)
		}
		seen[a] = true
		if _, err := os.Stat(a); err != nil {
			t.Fatalf("set-aside %s vanished: %v", a, err)
		}
	}
}

func TestGCEvictsLRUUnderCap(t *testing.T) {
	dir := t.TempDir()
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []resultcache.Key
	for i := 0; i < 8; i++ {
		k := resultcache.KeyOf(fmt.Sprintf("gc-%d", i))
		c.Put(k, fakeResult(fmt.Sprintf("gc-%d", i)))
		keys = append(keys, k)
	}
	// Age the entries oldest-first, then refresh entry 0 so recency —
	// not publish order — decides survival.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c.EntryPath(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now()
	if err := os.Chtimes(c.EntryPath(keys[0]), now, now); err != nil {
		t.Fatal(err)
	}
	size, err := os.Stat(c.EntryPath(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	// Cap to roughly half the entries.
	capped, err := resultcache.Open(dir, size.Size()*4)
	if err != nil {
		t.Fatal(err)
	}
	if st := capped.Stats(); st.Evicted == 0 {
		t.Fatal("over-cap open evicted nothing")
	}
	if _, ok := capped.Get(keys[0]); !ok {
		t.Fatal("most-recently-used entry was evicted")
	}
	if _, ok := capped.Get(keys[1]); ok {
		t.Fatal("least-recently-used entry survived an over-cap GC")
	}
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if info, err := de.Info(); err == nil && strings.HasSuffix(de.Name(), ".cell") {
			total += info.Size()
		}
	}
	if total > size.Size()*4 {
		t.Fatalf("post-GC size %d exceeds cap %d", total, size.Size()*4)
	}
}

func TestGCReclaimsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".put-stale")
	fresh := filepath.Join(dir, ".put-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := resultcache.Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("crash debris .put- temp survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("young .put- temp (possibly mid-publish elsewhere) was reclaimed")
	}
}

func TestConcurrentPutGetNeverServesPartial(t *testing.T) {
	c := openCache(t)
	key := resultcache.KeyOf("in-process-race")
	want := fakeResult("in-process-race")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.Put(key, want)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				got, ok, err := c.GetChecked(key)
				if err != nil {
					t.Errorf("reader saw a refusal during racing publishes: %v", err)
					return
				}
				if ok && !sameResult(got, want) {
					t.Errorf("reader saw a wrong result: %+v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// stressWorkerMain is the re-exec'd publisher: open the shared cache
// and publish the one deterministic cell, racing its siblings.
func stressWorkerMain(dir string) int {
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress worker:", err)
		return 1
	}
	c.Put(resultcache.KeyOf("multi-process-cell"), fakeResult("multi-process-cell"))
	if st := c.Stats(); st.StoreErrors != 0 {
		fmt.Fprintln(os.Stderr, "stress worker: publish failed")
		return 1
	}
	return 0
}

func TestMultiProcessPublishOneWinnerAllVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			cmd := exec.Command(bin, "-test.run=TestMain")
			cmd.Env = append(os.Environ(), stressWorkerEnv+"="+dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				err = fmt.Errorf("%v: %s", err, out)
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// One winner under the final name, no leftover publish temps, and
	// the surviving bytes verify for any reader.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells, temps := 0, 0
	for _, de := range ents {
		switch {
		case strings.HasSuffix(de.Name(), ".cell"):
			cells++
		case strings.HasPrefix(de.Name(), ".put-"):
			temps++
		}
	}
	if cells != 1 || temps != 0 {
		t.Fatalf("after %d racing publishers: %d entries, %d temps; want exactly 1 entry, 0 temps", n, cells, temps)
	}
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, gerr := c.GetChecked(resultcache.KeyOf("multi-process-cell"))
	if !ok || gerr != nil {
		t.Fatalf("surviving entry does not verify: (ok=%v, err=%v)", ok, gerr)
	}
	if !sameResult(got, fakeResult("multi-process-cell")) {
		t.Fatalf("surviving entry decodes to a different result: %+v", got)
	}
}
