package main

// CLI tests for sharded sweeps (-shards) and the resume/damage
// satellites: shard counts 1, 2 and 4 produce a report and journal
// byte-identical to the unsharded run, a sharded -resume of a torn
// journal appends what a sequential one does, flag validation, the
// hidden worker mode, the damaged-resume operator message, and
// -crashat under a parallel worker pool.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asmp/internal/journal"
	"asmp/internal/shard"
)

// TestMain diverts re-exec'd shard workers into the real CLI entry
// point: the supervisor spawns os.Executable() — this test binary —
// with shard.WorkerEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(shard.WorkerEnv) != "" {
		os.Exit(runWith(os.Args[1:], os.Stdout, os.Stderr, nil))
	}
	os.Exit(m.Run())
}

// shard3x3Args is the 3×3 reference sweep of the sharding acceptance
// criteria.
func shard3x3Args(extra ...string) []string {
	args := []string{"-workload", "specjbb", "-configs", "4f-0s/4,2f-2s/8,0f-4s/8", "-runs", "3", "-seed", "1"}
	return append(args, extra...)
}

func TestShardedSweepByteIdenticalAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	code, want, _ := runCmd(shard3x3Args()...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d", code)
	}
	// The journal reference runs sequentially so its record order is the
	// flattened grid order the supervisor appends in.
	refJ := filepath.Join(dir, "ref.jsonl")
	if code, _, errOut := runCmd(shard3x3Args("-journal", refJ, "-workers", "1")...); code != 0 {
		t.Fatalf("reference journal sweep exit = %d: %s", code, errOut)
	}
	refRaw, err := os.ReadFile(refJ)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 4} {
		sub := filepath.Join(dir, fmt.Sprint(k))
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		j := filepath.Join(sub, "run.jsonl")
		code, got, errOut := runCmd(shard3x3Args("-journal", j, "-shards", fmt.Sprint(k))...)
		if code != 0 {
			t.Fatalf("-shards %d exit = %d: %s", k, code, errOut)
		}
		if got != want {
			t.Errorf("-shards %d report differs from the unsharded run:\n--- want ---\n%s--- got ---\n%s", k, want, got)
		}
		raw, err := os.ReadFile(j)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(refRaw) {
			t.Errorf("-shards %d journal differs from the unsharded journal", k)
		}
		// The sweep leaves its one journal and nothing else.
		if files, err := os.ReadDir(sub); err != nil || len(files) != 1 {
			t.Errorf("-shards %d left %v (err %v), want only run.jsonl", k, files, err)
		}
		// The run digests came through the worker streams unchanged.
		log, err := journal.Read(j)
		if err != nil {
			t.Fatal(err)
		}
		refLog, err := journal.Read(refJ)
		if err != nil {
			t.Fatal(err)
		}
		for i := range refLog.Cells {
			if log.Cells[i].Digest != refLog.Cells[i].Digest {
				t.Errorf("-shards %d: cell (%d,%d) digest differs", k, refLog.Cells[i].Cfg, refLog.Cells[i].Run)
			}
		}
	}

	// A plain -resume of the sharded journal is indistinguishable from
	// resuming an unsharded one: nothing re-executes, the report matches.
	code, resumed, errOut := runCmd(shard3x3Args("-journal", filepath.Join(dir, "2", "run.jsonl"), "-resume")...)
	if code != 0 {
		t.Fatalf("resume of sharded journal exit = %d: %s", code, errOut)
	}
	if resumed != want {
		t.Error("resume of the sharded journal differs from the unsharded report")
	}
}

func TestShardedSweepCSVByteIdentical(t *testing.T) {
	dir := t.TempDir()
	code, want, _ := runCmd(shard3x3Args("-csv")...)
	if code != 0 {
		t.Fatalf("reference exit = %d", code)
	}
	j := filepath.Join(dir, "run.jsonl")
	code, got, errOut := runCmd(shard3x3Args("-csv", "-journal", j, "-shards", "2")...)
	if code != 0 {
		t.Fatalf("-shards 2 -csv exit = %d: %s", code, errOut)
	}
	if got != want {
		t.Errorf("sharded CSV differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestShardedSweepLongFaultPlan: a generator fault plan whose expansion
// outgrows one argv string (Linux caps a single argument at 128 KiB)
// still reaches the workers, which are handed the -fault text as given:
// the sharded journal equals the unsharded one byte for byte.
func TestShardedSweepLongFaultPlan(t *testing.T) {
	dir := t.TempDir()
	args := func(extra ...string) []string {
		return append([]string{"-workload", "specjbb", "-configs", "4f-0s/4,2f-2s/8", "-runs", "1",
			"-fault", "wave@1s:1ms:0:0.5:5000"}, extra...)
	}
	refJ := filepath.Join(dir, "ref.jsonl")
	code, want, errOut := runCmd(args("-journal", refJ, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d: %s", code, errOut)
	}
	refLog, err := journal.Read(refJ)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(refLog.Header.Fault); n <= 128<<10 {
		t.Fatalf("fault plan expands to %d bytes; the test needs more than one argv string holds", n)
	}
	j := filepath.Join(dir, "run.jsonl")
	code, got, errOut := runCmd(args("-journal", j, "-shards", "2")...)
	if code != 0 {
		t.Fatalf("-shards 2 exit = %d: %s", code, errOut)
	}
	if got != want {
		t.Error("sharded report differs from the unsharded run")
	}
	raw, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	refRaw, err := os.ReadFile(refJ)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(refRaw) {
		t.Error("sharded journal differs from the unsharded journal")
	}
}

func TestShardsFlagValidation(t *testing.T) {
	if code, _, errOut := runCmd(sweepArgs("-shards", "2")...); code != 2 ||
		!strings.Contains(errOut, "-shards requires -journal") {
		t.Errorf("missing -journal: exit = %d, stderr = %s", code, errOut)
	}
	if code, _, errOut := runCmd(sweepArgs("-shards", "-1", "-journal", "x")...); code != 2 ||
		!strings.Contains(errOut, "non-negative") {
		t.Errorf("negative shards: exit = %d, stderr = %s", code, errOut)
	}
	if code, _, errOut := runCmd(sweepArgs("-verify", "2", "-shards", "2", "-journal", "x")...); code != 2 ||
		!strings.Contains(errOut, "-verify is an audit") {
		t.Errorf("verify+shards: exit = %d, stderr = %s", code, errOut)
	}
}

// TestShardWorkerHidden: -shardworker is supervisor plumbing, not a
// user flag — it must not appear in -h output (while -shards must).
func TestShardWorkerHidden(t *testing.T) {
	code, _, errOut := runCmd("-h")
	if code != 2 {
		t.Fatalf("-h exit = %d, want 2", code)
	}
	if strings.Contains(errOut, "shardworker") {
		t.Errorf("-shardworker leaked into usage:\n%s", errOut)
	}
	if !strings.Contains(errOut, "-shards") {
		t.Errorf("-shards missing from usage:\n%s", errOut)
	}
}

// TestDamagedResumeReportsOffsetAndSetAside: a mid-file corruption is
// not a crash signature, so -resume refuses — and the message must
// carry the first-invalid byte offset plus where the file was set
// aside, so the operator can rerun immediately.
func TestDamagedResumeReportsOffsetAndSetAside(t *testing.T) {
	dir := t.TempDir()
	j := filepath.Join(dir, "run.jsonl")
	if code, _, errOut := runCmd(sweepArgs("-journal", j)...); code != 0 {
		t.Fatalf("journaled sweep exit = %d: %s", code, errOut)
	}
	raw, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	corrupt := lines[0] + "{broken}\n" + strings.Join(lines[2:], "")
	if err := os.WriteFile(j, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, errOut := runCmd(sweepArgs("-journal", j, "-resume")...)
	if code != 2 {
		t.Fatalf("resume of damaged journal exit = %d, want 2\n%s", code, errOut)
	}
	wantOff := fmt.Sprintf("byte offset %d", len(lines[0]))
	if !strings.Contains(errOut, wantOff) {
		t.Errorf("stderr lacks %q:\n%s", wantOff, errOut)
	}
	if !strings.Contains(errOut, "set aside to "+j+".damaged") {
		t.Errorf("stderr lacks the set-aside path:\n%s", errOut)
	}
	if _, err := os.Stat(j + ".damaged"); err != nil {
		t.Errorf("damaged journal not set aside: %v", err)
	}
	if _, err := os.Stat(j); !os.IsNotExist(err) {
		t.Errorf("damaged journal still at the original path (err %v)", err)
	}

	// A second damage at the same path lands beside the first, never
	// over it.
	if code, _, _ := runCmd(sweepArgs("-journal", j)...); code != 0 {
		t.Fatal("fresh sweep after set-aside failed")
	}
	if err := os.WriteFile(j, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCmd(sweepArgs("-journal", j, "-resume")...); code != 2 ||
		!strings.Contains(errOut, "set aside to "+j+".damaged.1") {
		t.Errorf("second set-aside: exit = %d, stderr = %s", code, errOut)
	}
	for _, p := range []string{j + ".damaged", j + ".damaged.1"} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestCrashAtWithParallelWorkers: the crash-matrix invariant — resume
// is byte-identical or a typed refusal — must hold when the tear lands
// while a parallel worker pool is mid-flight, not just under the
// sequential writer the original matrix used.
func TestCrashAtWithParallelWorkers(t *testing.T) {
	dir := t.TempDir()
	code, want, _ := runCmd(shard3x3Args()...)
	if code != 0 {
		t.Fatalf("reference sweep exit = %d", code)
	}
	ref := filepath.Join(dir, "ref.jsonl")
	if code, _, errOut := runCmd(shard3x3Args("-journal", ref, "-workers", "4")...); code != 0 {
		t.Fatalf("journaled sweep exit = %d: %s", code, errOut)
	}
	fi, err := os.Stat(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Sample tears across the file: early (header region), mid-sweep
	// (several cells in flight and complete), and late.
	for _, frac := range []int64{5, 2} {
		tear := fi.Size() / frac
		j := filepath.Join(dir, fmt.Sprintf("run-%d.jsonl", frac))
		code, got, errOut := runCmd(shard3x3Args("-journal", j, "-workers", "4", "-crashat", fmt.Sprint(tear))...)
		if code != 0 {
			t.Fatalf("torn sweep (byte %d) exit = %d: %s", tear, code, errOut)
		}
		if got != want {
			t.Errorf("tear at byte %d changed the live report", tear)
		}
		if !strings.Contains(errOut, "journal incomplete") {
			t.Errorf("tear at byte %d not reported: %s", tear, errOut)
		}
		code, resumed, errOut := runCmd(shard3x3Args("-journal", j, "-resume")...)
		if code != 0 {
			t.Fatalf("resume of journal torn at %d under -workers 4: exit = %d: %s", tear, code, errOut)
		}
		if resumed != want {
			t.Errorf("resume of journal torn at byte %d differs from the reference", tear)
		}
	}
}

// TestShardedResumeFromTornPrefixes: -crashat under -shards tears the
// supervisor's one journal, leaving exactly a prefix of the reference
// journal while the report stays whole. -shards k -resume of that
// prefix, for k other than the torn run's as well, must append the
// bytes -workers 1 -resume appends and end at the reference journal; a
// prefix torn inside the header is refused by both alike, and a bare
// rerun starts fresh.
func TestShardedResumeFromTornPrefixes(t *testing.T) {
	dir := t.TempDir()
	code, want, _ := runCmd(shard3x3Args()...)
	if code != 0 {
		t.Fatalf("reference exit = %d", code)
	}
	refJ := filepath.Join(dir, "ref.jsonl")
	if code, _, errOut := runCmd(shard3x3Args("-journal", refJ, "-workers", "1")...); code != 0 {
		t.Fatalf("reference journal exit = %d: %s", code, errOut)
	}
	ref, err := os.ReadFile(refJ)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.Index(string(ref), "\n") + 1

	for _, tear := range []int{10, header + 1, len(ref) / 2, len(ref) - 1} {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.jsonl", tear))
		code, got, errOut := runCmd(shard3x3Args("-journal", torn, "-shards", "2", "-crashat", fmt.Sprint(tear))...)
		if code != 0 || got != want || !strings.Contains(errOut, "journal incomplete") {
			t.Fatalf("tear at %d: exit = %d, report intact = %v, stderr:\n%s", tear, code, got == want, errOut)
		}
		prefix, err := os.ReadFile(torn)
		if err != nil {
			t.Fatal(err)
		}
		if string(prefix) != string(ref[:tear]) {
			t.Fatalf("tear at %d: the torn journal is not the reference's prefix", tear)
		}

		resume := func(label string, extra ...string) (int, string) {
			j := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", label, tear))
			if err := os.WriteFile(j, prefix, 0o644); err != nil {
				t.Fatal(err)
			}
			code, got, errOut := runCmd(shard3x3Args(append([]string{"-journal", j, "-resume"}, extra...)...)...)
			raw, err := os.ReadFile(j)
			if code == 0 && (err != nil || got != want) {
				t.Errorf("tear at %d, %s: report intact = %v (err %v)", tear, label, got == want, err)
			}
			if code != 0 && code != 2 {
				t.Errorf("tear at %d, %s: exit = %d: %s", tear, label, code, errOut)
			}
			return code, string(raw)
		}
		seqCode, seq := resume("seq", "-workers", "1")
		for _, k := range []int{1, 2, 3} {
			code, got := resume(fmt.Sprintf("shards%d", k), "-shards", fmt.Sprint(k))
			if code != seqCode || got != seq {
				t.Errorf("tear at %d: -shards %d -resume (exit %d) differs from -workers 1 -resume (exit %d)", tear, k, code, seqCode)
			}
		}
		if tear < header {
			if seqCode != 2 {
				t.Errorf("tear at %d inside the header: resume exit = %d, want 2 (refused)", tear, seqCode)
			}
			if code, got, errOut := runCmd(shard3x3Args("-journal", torn, "-shards", "2")...); code != 0 || got != want {
				t.Errorf("bare rerun after a torn header: exit = %d: %s", code, errOut)
			}
			if raw, err := os.ReadFile(torn); err != nil || string(raw) != string(ref) {
				t.Errorf("bare rerun after a torn header: journal equals the reference = %v (err %v)", string(raw) == string(ref), err)
			}
			continue
		}
		if seqCode != 0 || seq != string(ref) {
			t.Errorf("tear at %d: resume exit = %d, journal equals the reference = %v", tear, seqCode, seq == string(ref))
		}
	}
}
