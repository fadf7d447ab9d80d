// Command asmp-sweep runs one workload over machine configurations and
// scheduling policies — the free-form counterpart to asmp-run's fixed
// figure registry. It is the quickest way to ask "what would workload X
// do on machine Y under scheduler Z?", including with runtime faults
// injected mid-run.
//
// Usage:
//
//	asmp-sweep -list
//	asmp-sweep -workload specjbb -runs 5
//	asmp-sweep -workload zeus -configs 4f-0s,2f-2s/8 -policy aware
//	asmp-sweep -workload tpch -runs 8 -csv
//	asmp-sweep -workload specjbb -configs 4f-0s \
//	    -fault "throttle@1.5s:0:0.125,restore@3.5s:0" -timeout 1min
//	asmp-sweep -workload tpch -runs 8 -journal run.jsonl   # then ^C ...
//	asmp-sweep -workload tpch -runs 8 -journal run.jsonl -resume
//	asmp-sweep -workload specjbb -verify 3
//
// A sweep with -journal appends every completed cell to an append-only
// JSONL journal; after an interruption (SIGINT stops the sweep cleanly
// at the next event boundary) the same command with -resume re-executes
// only the missing cells and produces the identical final report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"asmp/internal/core"
	"asmp/internal/faultio"
	"asmp/internal/journal"
	"asmp/internal/profiling"
	"asmp/internal/report"
	"asmp/internal/resultcache"
	"asmp/internal/sched"
	"asmp/internal/shard"
	"asmp/internal/workload"
	_ "asmp/internal/workload/h264"
	_ "asmp/internal/workload/jappserver"
	_ "asmp/internal/workload/jbb"
	_ "asmp/internal/workload/multiprog"
	_ "asmp/internal/workload/omp"
	_ "asmp/internal/workload/pmake"
	_ "asmp/internal/workload/tpch"
	_ "asmp/internal/workload/web"
)

// exitCancelled is the exit code for an interrupted sweep (128+SIGINT,
// the shell convention). It aliases shard.ExitCancelled: the shard
// supervisor recognizes this code from a dead worker and maps it back
// to core.ErrCancelled, so the two must agree.
const exitCancelled = shard.ExitCancelled

func main() {
	cancel := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(cancel)
		// A second signal terminates immediately via default handling.
		signal.Stop(sig)
	}()
	os.Exit(runWith(os.Args[1:], os.Stdout, os.Stderr, cancel))
}

// run is the testable entry point: it parses args, writes to the given
// streams and returns the process exit code. Every error path prints a
// one-line message and returns non-zero; nothing panics.
func run(args []string, stdout, stderr io.Writer) int {
	return runWith(args, stdout, stderr, nil)
}

// runWith is run with an explicit cancel signal (closed by main's
// SIGINT handler, or by tests).
func runWith(args []string, stdout, stderr io.Writer, cancel <-chan struct{}) (code int) {
	// -crashat N is a hidden flag (absent from -h): it tears the
	// journal's write stream at byte N through an injected fault sink,
	// leaving exactly the file a crash at that byte would leave. It
	// exists so the crash-consistency matrix (DESIGN.md §9) can be
	// exercised end to end against the real CLI.
	args, crashAt, crashSet, cerr := faultio.ExtractCrashAt(args)
	if cerr != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", cerr)
		return 2
	}
	// -shardworker index/of:lo-hi is the other hidden flag: it puts the
	// process in shard-worker mode — execute one slice of the cell grid
	// and stream its records to stdout instead of a report. Only the
	// -shards supervisor spawns it (see internal/shard.ExecRunner).
	args, workerRange, isWorker, serr := shard.ExtractWorker(args)
	if serr != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", serr)
		return 2
	}
	fs := flag.NewFlagSet("asmp-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The sweep's own flags bind straight into the shared spec; core
	// decodes and validates them exactly as it does a /v1/sweep body.
	var spec core.SweepSpec
	fs.StringVar(&spec.Workload, "workload", "", "registered workload name (see -list)")
	fs.Func("configs", "comma-separated nf-ms/scale configs (default: the paper's nine)", func(v string) error {
		spec.Configs = nil
		if v != "" {
			spec.Configs = strings.Split(v, ",")
		}
		return nil
	})
	fs.IntVar(&spec.Runs, "runs", 3, "repetitions per configuration")
	fs.StringVar(&spec.Policy, "policy", "naive", "scheduler policy: "+sched.PolicyUsage)
	fs.Uint64Var(&spec.Seed, "seed", 1, "base random seed")
	fs.StringVar(&spec.Fault, "fault", "", `fault plan injected into every run, e.g. "throttle@1.5s:0:0.125,restore@3.5s:0"`)
	fs.StringVar(&spec.Timeout, "timeout", "", "virtual-time watchdog per run, e.g. 30s or 2min (wedged runs become ERR cells)")
	fs.IntVar(&spec.Retries, "retries", 0, "retry each failed run up to N times with a fresh derived seed")
	var (
		list     = fs.Bool("list", false, "list registered workloads")
		csv      = fs.Bool("csv", false, "emit CSV")
		journalP = fs.String("journal", "", "append every completed cell to this JSONL journal (enables -resume)")
		resume   = fs.Bool("resume", false, "resume the sweep recorded in -journal, re-executing only missing or failed cells")
		shards   = fs.Int("shards", 0, "run the sweep's cells on N supervised worker processes that stream their records into -journal, byte-identical to an unsharded -workers 1 journal (requires -journal; combines with -resume)")
		shardRet = fs.Int("shardretries", 2, "respawn budget per shard before its cells degrade to ERR (with -shards)")
		verify   = fs.Int("verify", 0, "audit determinism instead of sweeping: run each cell N times (min 2) and require bit-identical digests")
		workers  = fs.Int("workers", 0, "host worker-pool size for cell execution: 0 = GOMAXPROCS, 1 = sequential (results are identical either way)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (observability only; output is unaffected)")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		cacheDir = fs.String("cache-dir", resultcache.DirFromEnv(), "disk result-cache directory shared across processes and shard workers (default $ASMP_CACHE_DIR; empty = no cache; results are identical either way)")
		noCache  = fs.Bool("no-cache", false, "ignore -cache-dir and $ASMP_CACHE_DIR: simulate every cell")
		cacheMax = fs.Int("cache-max-mb", resultcache.MaxMBFromEnv(), "size cap for -cache-dir in MiB, enforced LRU (default $ASMP_CACHE_MAX_MB; 0 = uncapped)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "asmp-sweep: unexpected argument %q (flags only)\n", fs.Arg(0))
		return 2
	}
	stopCPU, perr := profiling.StartCPU(*cpuProf)
	if perr != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", perr)
		return 2
	}
	defer func() {
		if err := stopCPU(); err != nil {
			fmt.Fprintln(stderr, "asmp-sweep:", err)
			if code == 0 {
				code = 1
			}
		}
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(stderr, "asmp-sweep:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *list {
		for _, n := range workload.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if spec.Workload == "" {
		fs.Usage()
		return 2
	}
	tearSeed := spec.Seed // -seed as given: Experiment canonicalises 0 to 1
	exp, err := spec.Experiment("-")
	if err != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", err)
		return 2
	}
	exp.Cancel = cancel
	if *workers < 0 {
		fmt.Fprintf(stderr, "asmp-sweep: -workers must be non-negative, got %d\n", *workers)
		return 2
	}
	core.SetDefaultWorkers(*workers)
	// Attach (or, with -no-cache or no dir, detach) the disk result
	// cache. Always set, so repeated in-process invocations (tests)
	// never inherit a previous run's cache. Caching only changes wall
	// time: reports, journals and digests are byte-identical either way
	// (DESIGN.md §12). Shard workers inherit the supervisor's dir via
	// $ASMP_CACHE_DIR (shard.ExecRunner exports it), which is what lets
	// a respawned worker warm-hit its dead predecessor's cells.
	dir := *cacheDir
	if *noCache {
		dir = ""
	}
	if err := core.AttachResultCache(dir, *cacheMax); err != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", err)
		return 2
	}
	if *resume && *journalP == "" {
		fmt.Fprintln(stderr, "asmp-sweep: -resume requires -journal")
		return 2
	}
	if *shards < 0 || *shardRet < 0 {
		fmt.Fprintln(stderr, "asmp-sweep: -shards and -shardretries must be non-negative")
		return 2
	}
	if *shards > 0 && *journalP == "" {
		fmt.Fprintln(stderr, "asmp-sweep: -shards requires -journal (the journal the workers' records are appended to)")
		return 2
	}
	if *shards > 0 && isWorker {
		fmt.Fprintln(stderr, "asmp-sweep: a shard worker cannot itself be a supervisor")
		return 2
	}
	var wrap journal.WrapSink
	if crashSet {
		if *journalP == "" {
			fmt.Fprintln(stderr, "asmp-sweep: -crashat requires -journal")
			return 2
		}
		wrap = faultio.Plan{Tear: true, TearAt: crashAt, Seed: tearSeed}.Wrap()
	}
	if *verify > 0 && (*journalP != "" || *resume || *shards > 0) {
		fmt.Fprintln(stderr, "asmp-sweep: -verify is an audit, not a sweep; it does not combine with -journal/-resume/-shards")
		return 2
	}

	if *verify > 0 {
		return runVerify(exp, *verify, stdout, stderr)
	}
	if isWorker {
		resumeFrom := ""
		if *resume {
			resumeFrom = *journalP
		}
		return runWorker(exp, workerRange, resumeFrom, wrap, stdout, stderr)
	}

	var log *journal.Log
	var jw *journal.Writer
	switch {
	case *journalP != "" && *resume:
		log, jw, err = journal.ResumeVia(*journalP, wrap)
		if err != nil {
			var de *journal.DamagedError
			if errors.As(err, &de) {
				// The message carries the first-invalid byte offset; set
				// the file aside so the operator can rerun immediately
				// and still inspect the damage.
				fmt.Fprintln(stderr, "asmp-sweep:", err)
				if aside, aerr := journal.SetAside(*journalP); aerr != nil {
					fmt.Fprintf(stderr, "asmp-sweep: could not set the damaged journal aside: %v\n", aerr)
				} else {
					fmt.Fprintf(stderr, "asmp-sweep: damaged journal set aside to %s; rerun with -journal %s to start a fresh sweep\n", aside, *journalP)
				}
				return 2
			}
			fmt.Fprintln(stderr, "asmp-sweep:", err)
			return 2
		}
		if log.Dropped > 0 {
			fmt.Fprintf(stderr, "asmp-sweep: journal had a corrupt tail (%d line(s), the interrupted write); truncated\n", log.Dropped)
		}
	case *journalP != "":
		jw, err = journal.CreateVia(*journalP, wrap)
		if err != nil {
			fmt.Fprintln(stderr, "asmp-sweep:", err)
			return 2
		}
	}
	exp.Journal = jw

	var out *core.Outcome
	switch {
	case *shards > 0:
		// Re-exec this binary per shard with the sweep's own spec;
		// -shardworker is appended per spawn, and a resuming worker
		// reads the journal to skip the cells it already holds.
		workerArgs := spec.Args()
		if *workers != 0 {
			workerArgs = append(workerArgs, "-workers", fmt.Sprint(*workers))
		}
		if log != nil {
			workerArgs = append(workerArgs, "-journal", *journalP, "-resume")
		}
		var failed int
		out, failed = runSharded(exp, log, *shards, *shardRet, workerArgs, stderr, cancel)
		if out == nil {
			if cerr := jw.Close(); cerr != nil {
				fmt.Fprintln(stderr, "asmp-sweep:", cerr)
			}
			return failed
		}
	case log != nil:
		out, err = exp.Resume(log)
		if err != nil {
			if cerr := jw.Close(); cerr != nil {
				fmt.Fprintln(stderr, "asmp-sweep:", cerr)
			}
			fmt.Fprintln(stderr, "asmp-sweep:", err)
			return 2
		}
	default:
		out = exp.Run()
	}
	if out.JournalErr != nil {
		fmt.Fprintf(stderr, "asmp-sweep: journal incomplete (do not resume from it): %v\n", out.JournalErr)
		if errors.Is(out.JournalErr, faultio.ErrInjected) {
			fmt.Fprintf(stderr, "asmp-sweep: injected crash: journal torn at byte %d\n", crashAt)
		}
	}
	if jw != nil {
		if err := jw.Close(); err != nil && out.JournalErr == nil {
			fmt.Fprintf(stderr, "asmp-sweep: journal incomplete: %v\n", err)
		}
	}

	t := report.OutcomeTable(out)
	t.AddNote("max asymmetric CoV = %s, symmetric noise floor = %s",
		report.F(out.MaxCoV(true)), report.F(out.SymmetricMaxCoV()))
	if len(out.PerConfig) >= 2 {
		fit := out.ScalabilityFit()
		t.AddNote("scalability fit R² = %.3f", fit.R2)
	}
	if exp.Fault != nil {
		t.AddNote("fault plan: %s", exp.Fault)
	}
	if *csv {
		fmt.Fprint(stdout, t.CSV())
	} else {
		fmt.Fprintln(stdout, t.String())
	}
	logCacheStats(stderr, "asmp-sweep")
	cancelled := 0
	for i := range out.PerConfig {
		cancelled += out.PerConfig[i].Cancelled()
	}
	if cancelled > 0 {
		fmt.Fprintf(stderr, "asmp-sweep: interrupted: %d run(s) cancelled\n", cancelled)
		if *journalP != "" {
			fmt.Fprintf(stderr, "asmp-sweep: rerun with -journal %s -resume to complete the sweep\n", *journalP)
		}
		return exitCancelled
	}
	if n := len(out.Errors()); n > 0 {
		fmt.Fprintf(stderr, "asmp-sweep: %d run(s) failed\n", n)
		return 1
	}
	return 0
}

// logCacheStats reports the disk result-cache counters on stderr when a
// cache is attached (observability only — stdout is the report). Shard
// workers call it too; their forwarded lines let a sharded sweep show
// per-worker cross-process hits.
func logCacheStats(stderr io.Writer, prefix string) {
	if core.ResultCache() == nil {
		return
	}
	d := core.MemoStats().Disk
	fmt.Fprintf(stderr, "%s: cache hits=%d misses=%d stored=%d refused=%d evicted=%d\n",
		prefix, d.Hits, d.Misses, d.Stored, d.Refused, d.Evicted)
}

// runVerify executes the determinism self-audit: every configuration of
// the sweep is run -verify times and each replay must reproduce the
// baseline digest bit-for-bit. A divergence names the first differing
// scheduler event.
func runVerify(exp core.Experiment, n int, stdout, stderr io.Writer) int {
	if n < 2 {
		n = 2
	}
	configs, _, _ := exp.Grid()
	fmt.Fprintf(stdout, "determinism audit: %s, %s policy, seed %d, %d executions per config\n",
		exp.Workload.Name(), exp.Sched.Policy, exp.BaseSeed, n)
	failedCount := 0
	for _, cfg := range configs {
		err := core.VerifyDeterminism(core.RunSpec{
			Workload: exp.Workload,
			Config:   cfg,
			Sched:    exp.Sched,
			Seed:     core.RunSeed(exp.BaseSeed, 0, 0),
			Fault:    exp.Fault,
			Limits:   exp.Limits,
			Cancel:   exp.Cancel,
		}, n)
		switch {
		case err == nil:
			fmt.Fprintf(stdout, "  %-10s PASS\n", cfg)
		default:
			failedCount++
			fmt.Fprintf(stdout, "  %-10s FAIL\n", cfg)
			fmt.Fprintln(stderr, "asmp-sweep:", err)
		}
	}
	if failedCount > 0 {
		fmt.Fprintf(stderr, "asmp-sweep: determinism audit failed for %d of %d configuration(s)\n", failedCount, len(configs))
		return 1
	}
	fmt.Fprintf(stdout, "all %d configuration(s) replay bit-identically\n", len(configs))
	return 0
}
