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
	"fmt"
	"io"
	"strings"

	"asmp/internal/cli"
	"asmp/internal/core"
	"asmp/internal/faultio"
	"asmp/internal/journal"
	"asmp/internal/report"
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

func main() { cli.Main(runWith) }

// run is the testable entry point: it parses args, writes to the given
// streams and returns the process exit code. Every error path prints a
// one-line message and returns non-zero; nothing panics.
func run(args []string, stdout, stderr io.Writer) int {
	return runWith(args, stdout, stderr, nil)
}

// runWith is run with an explicit cancel signal (closed by main's
// SIGINT handler, or by tests).
func runWith(args []string, stdout, stderr io.Writer, cancel <-chan struct{}) (code int) {
	fs := cli.NewFlagSet("asmp-sweep", stderr)
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
	// -shardworker index/of:lo-hi puts the process in shard-worker mode:
	// execute one slice of the cell grid and stream its records to
	// stdout instead of a report. Only the -shards supervisor spawns it
	// (see internal/shard.ExecRunner).
	var worker *core.ShardRange
	cli.Hidden(fs, "shardworker", func(v string) error {
		r, err := core.ParseShardRange(v)
		worker = &r
		return err
	})
	var (
		list     = fs.Bool("list", false, "list registered workloads")
		csv      = fs.Bool("csv", false, "emit CSV")
		jf       = cli.JournalFlags(fs, "cell")
		shards   = fs.Int("shards", 0, "run the sweep's cells on N supervised worker processes that stream their records into -journal, byte-identical to an unsharded -workers 1 journal (requires -journal; combines with -resume)")
		shardRet = fs.Int("shardretries", 2, "respawn budget per shard before its cells degrade to ERR (with -shards)")
		verify   = fs.Int("verify", 0, "audit determinism instead of sweeping: run each cell N times (min 2) and require bit-identical digests")
		prof     = cli.ProfileFlags(fs)
		host     = cli.HostFlags(fs)
	)
	if !cli.Parse(fs, args) {
		return 2
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", err)
		return 2
	}
	defer prof.Stop(&code)

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
	exp, err := spec.Experiment("-")
	if err == nil {
		err = host.SetWorkers()
	}
	if err == nil {
		// Caching only changes wall time: reports, journals and digests
		// are byte-identical either way (DESIGN.md §12). Shard workers
		// share the supervisor's cache, which is what lets a respawned
		// worker warm-hit its dead predecessor's cells.
		err = host.AttachCache()
	}
	var wrap journal.WrapSink
	if err == nil {
		wrap, err = jf.Check()
	}
	if err != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", err)
		return 2
	}
	exp.Cancel = cancel
	if *shards < 0 || *shardRet < 0 {
		fmt.Fprintln(stderr, "asmp-sweep: -shards and -shardretries must be non-negative")
		return 2
	}
	if *shards > 0 && jf.Path == "" {
		fmt.Fprintln(stderr, "asmp-sweep: -shards requires -journal (the journal the workers' records are appended to)")
		return 2
	}
	if *shards > 0 && worker != nil {
		fmt.Fprintln(stderr, "asmp-sweep: a shard worker cannot itself be a supervisor")
		return 2
	}
	if *verify > 0 && (jf.Path != "" || jf.Resume || *shards > 0) {
		fmt.Fprintln(stderr, "asmp-sweep: -verify is an audit, not a sweep; it does not combine with -journal/-resume/-shards")
		return 2
	}

	if *verify > 0 {
		return runVerify(exp, *verify, stdout, stderr)
	}
	if worker != nil {
		resumeFrom := ""
		if jf.Resume {
			resumeFrom = jf.Path
		}
		return runWorker(exp, *worker, resumeFrom, wrap, stdout, stderr)
	}

	log, jw, err := jf.Open(wrap)
	if err != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", err)
		return 2
	}
	exp.Journal = jw

	var out *core.Outcome
	switch {
	case *shards > 0:
		// Re-exec this binary per shard with the sweep's own spec;
		// -shardworker is appended per spawn, and a resuming worker
		// reads the journal to skip the cells it already holds.
		workerArgs := spec.Args()
		if host.Workers != 0 {
			workerArgs = append(workerArgs, "-workers", fmt.Sprint(host.Workers))
		}
		if log != nil {
			workerArgs = append(workerArgs, "-journal", jf.Path, "-resume")
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
			fmt.Fprintf(stderr, "asmp-sweep: injected crash: journal torn at byte %d\n", jf.TearAt)
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
		if jf.Path != "" {
			fmt.Fprintf(stderr, "asmp-sweep: rerun with -journal %s -resume to complete the sweep\n", jf.Path)
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
