package shard

// Chaos harness: the supervisor's headline property, driven through
// real worker processes. Workers are re-execs of this test binary
// (TestMain diverts on chaosWorkerEnv) that SIGKILL themselves
// mid-write at sampled byte offsets of their record stream, or suffer
// injected sink faults. Every interleaving must end in one of exactly
// two outcomes:
//
//   - the supervisor's retries converge and the journal is
//     byte-identical to the unsharded reference, or
//   - the retry budget exhausts and the sweep still completes, with
//     the dead shard's cells degraded to typed ERR records naming it.
//
// No third outcome — never silently different bytes, never a hang
// (every supervision here runs under a hard deadline). A failing
// scenario's journals are copied to $ASMP_CRASH_ARTIFACT_DIR when set,
// so CI uploads the exact counterexample. The default matrix is
// sampled; ASMP_SHARD_CHAOS_FULL (make test-shard, CI) widens it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/faultio"
	"asmp/internal/journal"
	"asmp/internal/workload"
	_ "asmp/internal/workload/jbb"
)

// chaosWorkerEnv carries the worker's JSON config; its presence makes
// the test binary run one shard worker instead of the test suite.
const chaosWorkerEnv = "ASMP_SHARD_CHAOS_WORKER"

// chaosConf is the re-exec'd worker's marching orders.
type chaosConf struct {
	Range      string // core.ShardRange, e.g. "0/2:0-5"
	TearAt     int64  // >0: tear the record stream at this byte
	Kill       bool   // with TearAt: SIGKILL self mid-write
	FailSyncAt int    // >0: fail the n-th sync
	Sequential bool   // run cells in grid order, so a kill leaves a delivered prefix
	CacheDir   string // attach the disk result cache here
	StatsFile  string // write the worker's final cache counters here
}

func TestMain(m *testing.M) {
	if conf := os.Getenv(chaosWorkerEnv); conf != "" {
		os.Exit(chaosWorkerMain(conf))
	}
	os.Exit(m.Run())
}

// chaosExperiment is the reference sweep (3 configs × 3 runs), built
// without a *testing.T so the worker process can construct the
// identical experiment.
func chaosExperiment() (core.Experiment, error) {
	w, err := workload.New("specjbb")
	if err != nil {
		return core.Experiment{}, err
	}
	return core.Experiment{
		Name:     "shard test",
		Workload: w,
		Configs: []cpu.Config{
			cpu.MustParseConfig("4f-0s/4"),
			cpu.MustParseConfig("2f-2s/8"),
			cpu.MustParseConfig("0f-4s/8"),
		},
		Runs:     3,
		BaseSeed: 11,
	}, nil
}

// chaosWorkerMain runs one shard worker per the env config, streaming
// to stdout as the CLI worker does. It exits 0 when done, 1 otherwise.
func chaosWorkerMain(conf string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		return 64
	}
	var c chaosConf
	if err := json.Unmarshal([]byte(conf), &c); err != nil {
		return fail(err)
	}
	r, err := core.ParseShardRange(c.Range)
	if err != nil {
		return fail(err)
	}
	exp, err := chaosExperiment()
	if err != nil {
		return fail(err)
	}
	exp.Sequential = c.Sequential
	if c.CacheDir != "" {
		if err := core.AttachResultCache(c.CacheDir, 0); err != nil {
			return fail(err)
		}
	}
	var wrap journal.WrapSink
	if c.TearAt > 0 || c.FailSyncAt > 0 {
		wrap = faultio.Plan{
			Tear:       c.TearAt > 0,
			TearAt:     c.TearAt,
			Kill:       c.Kill,
			FailSyncAt: c.FailSyncAt,
		}.Wrap()
	}
	err = Worker(exp, r, "", os.Stdout, wrap)
	// Report this worker's disk-cache counters to the supervisor side
	// of the harness. A SIGKILLed attempt never gets here — only the
	// surviving attempt's counters land in the file, which is exactly
	// what the respawn test wants to inspect.
	if c.StatsFile != "" {
		raw, merr := json.Marshal(core.MemoStats().Disk)
		if merr == nil {
			merr = os.WriteFile(c.StatsFile, raw, 0o644)
		}
		if merr != nil {
			return fail(merr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		return 1
	}
	return 0
}

// chaosRunner spawns real worker processes: fault picks each attempt's
// injection (zero chaosConf means a clean worker). The returned
// function lists the ranges each shard's attempts covered, in order.
func chaosRunner(fault func(shardIdx, attempt int) chaosConf) (Runner, func(shardIdx int) []core.ShardRange) {
	var mu sync.Mutex
	ranges := map[int][]core.ShardRange{}
	run := func(r core.ShardRange, stdout io.Writer) error {
		mu.Lock()
		ranges[r.Index] = append(ranges[r.Index], r)
		n := len(ranges[r.Index])
		mu.Unlock()
		c := fault(r.Index, n)
		c.Range = r.String()
		raw, err := json.Marshal(c)
		if err != nil {
			return err
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), chaosWorkerEnv+"="+string(raw))
		cmd.Stdout = stdout
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("worker %s: %w (stderr %q)", r, err, strings.TrimSpace(stderr.String()))
		}
		return nil
	}
	attempts := func(idx int) []core.ShardRange {
		mu.Lock()
		defer mu.Unlock()
		return append([]core.ShardRange(nil), ranges[idx]...)
	}
	return run, attempts
}

// chaosResult is one bounded supervision's journal and results.
type chaosResult struct {
	raw  []byte
	out  *core.Outcome
	outs []ShardOutcome
	err  error
}

// superviseBounded runs a fresh 2-shard supervision into path and
// enforces the no-hang half of the contract: the whole supervision
// must finish inside the deadline.
func superviseBounded(t *testing.T, exp core.Experiment, path string, o Options, limit time.Duration) chaosResult {
	t.Helper()
	done := make(chan chaosResult, 1)
	go func() {
		var res chaosResult
		w, err := journal.Create(path)
		if err != nil {
			res.err = err
			done <- res
			return
		}
		exp.Journal = w
		res.out, res.outs, res.err = Supervise(exp, nil, 2, o)
		if cerr := w.Close(); res.err == nil {
			res.err = cerr
		}
		if res.err == nil {
			res.raw, res.err = os.ReadFile(path)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("supervision: %v", res.err)
		}
		return res
	case <-time.After(limit):
		t.Fatalf("supervision did not finish within %v", limit)
		return chaosResult{}
	}
}

// saveArtifacts copies a failing scenario's journals into
// ASMP_CRASH_ARTIFACT_DIR (when set) so CI uploads the counterexample.
func saveArtifacts(t *testing.T, label string, paths ...string) {
	t.Helper()
	dir := os.Getenv("ASMP_CRASH_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		dst := filepath.Join(dir, label+"-"+filepath.Base(p))
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Logf("artifact write: %v", err)
			continue
		}
		t.Logf("counterexample journal saved to %s", dst)
	}
}

// chaosOffsets samples the byte offsets where a worker dies. The
// interesting region is the worker's own stream (roughly half the
// reference for 2 shards); offsets beyond it simply never fire and the
// worker completes — also a valid interleaving.
func chaosOffsets(refLen int) []int64 {
	if os.Getenv("ASMP_SHARD_CHAOS_FULL") != "" && !testing.Short() {
		var offs []int64
		for off := int64(1); off < int64(refLen); off += 97 {
			offs = append(offs, off)
		}
		return offs
	}
	return []int64{1, int64(refLen) / 8, int64(refLen) / 3, int64(refLen) / 2}
}

// TestChaosWorkerDeathConvergesByteIdentical: workers torn or
// SIGKILLed at sampled offsets (and sync-failed) on their first
// attempt must be respawned into a journal byte-identical to the
// unsharded reference.
func TestChaosWorkerDeathConvergesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)

	type scenario struct {
		name  string
		fault chaosConf
	}
	var scenarios []scenario
	for _, off := range chaosOffsets(len(ref)) {
		scenarios = append(scenarios,
			scenario{fmt.Sprintf("tear-%04d", off), chaosConf{TearAt: off}},
			scenario{fmt.Sprintf("sigkill-%04d", off), chaosConf{TearAt: off, Kill: true}},
		)
	}
	scenarios = append(scenarios,
		scenario{"failsync-1", chaosConf{FailSyncAt: 1}},
		scenario{"failsync-3", chaosConf{FailSyncAt: 3}},
	)

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			path := filepath.Join(dir, sc.name+".jsonl")
			// The fault fires on every shard's first attempt only; the
			// respawn runs clean.
			runner, _ := chaosRunner(func(idx, attempt int) chaosConf {
				if attempt > 1 {
					return chaosConf{}
				}
				return sc.fault
			})
			res := superviseBounded(t, exp, path, Options{Run: runner, Retries: 3, Sleep: noSleep}, time.Minute)
			for _, o := range res.outs {
				if o.Err != nil {
					saveArtifacts(t, sc.name, path)
					t.Fatalf("shard %s did not converge: %v", o.Range, o.Err)
				}
			}
			if !bytes.Equal(res.raw, ref) {
				saveArtifacts(t, sc.name, path)
				t.Fatal("journal differs from the unsharded reference")
			}
		})
	}
}

// TestChaosRespawnWarmHitsPredecessorCells: a worker SIGKILLed
// mid-stream leaves its already-executed cells in the shared disk cache
// (write-through happens at Execute time, before the stream write that
// killed it). The respawn must cover only the undelivered remainder —
// its range starts past the delivered prefix — AND serve re-executed
// cells from verified cache hits, without simulating them again, and
// the journal must still be byte-identical to the unsharded reference.
func TestChaosRespawnWarmHitsPredecessorCells(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exp := testExperiment(t)
	dir := t.TempDir()
	ref := referenceJournal(t, exp, dir)
	cacheDir := filepath.Join(dir, "cache")

	path := filepath.Join(dir, "run.jsonl")
	statsFile := func(idx int) string {
		return filepath.Join(dir, fmt.Sprintf("stats-%d.json", idx))
	}
	// Every shard's first attempt SIGKILLs itself mid-write, deep enough
	// into its stream that several cells completed (and were published)
	// first; respawns run clean with the same cache.
	runner, attempts := chaosRunner(func(idx, attempt int) chaosConf {
		c := chaosConf{Sequential: true, CacheDir: cacheDir, StatsFile: statsFile(idx)}
		if attempt == 1 {
			c.TearAt = int64(len(ref)) / 3
			c.Kill = true
		}
		return c
	})
	res := superviseBounded(t, exp, path, Options{Run: runner, Retries: 3, Sleep: noSleep}, time.Minute)
	for _, o := range res.outs {
		if o.Err != nil {
			saveArtifacts(t, "respawn-warm", path)
			t.Fatalf("shard %s did not converge: %v", o.Range, o.Err)
		}
		if rs := attempts(o.Range.Index); len(rs) < 2 || rs[1].Lo <= o.Range.Lo {
			t.Errorf("shard %s: attempt ranges %v, want a respawn starting past the delivered prefix", o.Range, rs)
		}
	}

	// The cache counters prove the respawn was warm: at minimum the cell
	// that was mid-write when the SIGKILL landed had already been
	// published, so the worker that finished each shard saw disk hits.
	sawHits := false
	for _, o := range res.outs {
		raw, err := os.ReadFile(statsFile(o.Range.Index))
		if err != nil {
			t.Fatalf("shard %d reported no cache stats: %v", o.Range.Index, err)
		}
		var st struct {
			Hits    uint64 `json:"hits"`
			Refused uint64 `json:"refused"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.Refused != 0 {
			t.Errorf("shard %d refused %d cache entries (atomic publish must not tear)", o.Range.Index, st.Refused)
		}
		if st.Hits > 0 {
			sawHits = true
		}
	}
	if !sawHits {
		t.Error("no respawned worker served a single disk hit — the cache was not shared across attempts")
	}

	if !bytes.Equal(res.raw, ref) {
		saveArtifacts(t, "respawn-warm", path)
		t.Fatal("journal over a shared cache differs from the unsharded reference")
	}
}

// TestChaosCrashLoopExhaustsBudgetAndDegrades: a shard whose worker
// SIGKILLs itself on *every* attempt exhausts its budget; the sweep
// still completes, with that shard's cells as typed ERR records naming
// the shard — the second of the two permitted outcomes.
func TestChaosCrashLoopExhaustsBudgetAndDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exp := testExperiment(t)
	dir := t.TempDir()
	runner, _ := chaosRunner(func(idx, attempt int) chaosConf {
		if idx == 1 {
			return chaosConf{TearAt: 1, Kill: true}
		}
		return chaosConf{}
	})
	res := superviseBounded(t, exp, filepath.Join(dir, "run.jsonl"), Options{Run: runner, Retries: 1, Sleep: noSleep}, time.Minute)
	if res.outs[0].Err != nil {
		t.Fatalf("healthy shard: %v", res.outs[0].Err)
	}
	if res.outs[1].Err == nil || res.outs[1].Attempts != 2 {
		t.Fatalf("crash-loop shard: err=%v attempts=%d, want exhausted budget of 2", res.outs[1].Err, res.outs[1].Attempts)
	}
	out := res.out
	_, runs, _ := exp.Grid()
	bad := res.outs[1].Range
	for c := range out.PerConfig {
		for r := 0; r < runs; r++ {
			cellErr := out.PerConfig[c].Errs[r]
			if bad.Contains(c*runs + r) {
				if cellErr == nil || !strings.Contains(cellErr.Error(), bad.String()) {
					t.Errorf("cell (%d,%d): err = %v, want ERR naming shard %s", c, r, cellErr, bad)
				}
			} else if cellErr != nil {
				t.Errorf("healthy cell (%d,%d): %v", c, r, cellErr)
			}
		}
	}
}
