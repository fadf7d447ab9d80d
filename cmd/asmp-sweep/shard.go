package main

// Sharded sweeps: -shards N splits the cells to run across worker
// processes (re-execs of this binary in the hidden -shardworker mode)
// that stream their records over stdout; the supervisor respawns
// crashed workers and appends every record to the one -journal, which
// ends up byte-identical to the journal an unsharded -workers 1 run
// writes.

import (
	"errors"
	"fmt"
	"io"
	"os"

	"asmp/internal/core"
	"asmp/internal/journal"
	"asmp/internal/shard"
)

// runWorker is the hidden -shardworker mode: execute one shard of the
// sweep and stream its records to stdout, nothing else. With -resume
// it reads -journal to skip the cells already recorded there.
func runWorker(exp core.Experiment, r core.ShardRange, resumeFrom string, wrap journal.WrapSink, stdout, stderr io.Writer) int {
	err := shard.Worker(exp, r, resumeFrom, stdout, wrap)
	// Each worker reports its own disk-cache counters; the supervisor
	// forwards the line, so a sharded sweep's stderr shows exactly which
	// shards were served cross-process hits.
	logCacheStats(stderr, fmt.Sprintf("asmp-sweep: shard %s", r))
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "asmp-sweep:", err)
	if errors.Is(err, core.ErrCancelled) {
		return exitCancelled
	}
	return 1
}

// runSharded is the supervisor: run the sweep's pending cells (all of
// them, or with log set the ones the resumed journal lacks) through
// re-exec'd workers, appending their records to exp.Journal, and
// return the Outcome the shared report tail renders. It returns
// (nil, code) when the sweep cannot produce an outcome (refusal or
// cancellation) and (out, 0) otherwise — per-cell failures live inside
// out, exactly as in an unsharded sweep.
func runSharded(exp core.Experiment, log *journal.Log, shards, retries int, workerArgs []string, stderr io.Writer, cancel <-chan struct{}) (*core.Outcome, int) {
	// One lock in front of stderr: the supervisor goroutines' log lines
	// and the workers' forwarded stderr streams interleave by line.
	stderr = shard.SyncWriter(stderr)
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "asmp-sweep:", err)
		return nil, 1
	}
	out, _, err := shard.Supervise(exp, log, shards, shard.Options{
		Run:     shard.ExecRunner(bin, workerArgs, stderr),
		Retries: retries,
		Cancel:  cancel,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "asmp-sweep: "+format+"\n", args...)
		},
	})
	switch {
	case errors.Is(err, core.ErrCancelled):
		fmt.Fprintln(stderr, "asmp-sweep: interrupted: shard supervision cancelled")
		fmt.Fprintf(stderr, "asmp-sweep: rerun with -journal %s -resume to complete the sweep\n", exp.Journal.Path())
		return nil, exitCancelled
	case err != nil:
		fmt.Fprintln(stderr, "asmp-sweep:", err)
		return nil, 2
	}
	return out, 0
}
