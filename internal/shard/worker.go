package shard

// The worker side: one process executes one shard attempt as a
// shard-scoped experiment (core.ShardRange) and streams its records to
// the supervisor over stdout. Workers are spawned through a Runner;
// ExecRunner is the production implementation (re-exec the binary with
// the hidden -shardworker flag), and tests substitute in-process or
// fault-injected runners.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

	"asmp/internal/core"
	"asmp/internal/journal"
	"asmp/internal/resultcache"
)

// Worker runs one shard attempt: the experiment restricted to r, its
// records written to stdout as the sealed lines a journal holds — the
// sweep's header, then one line per completed cell. With resumeFrom
// set it first reads that journal (read-only: the supervisor owns it)
// and skips the cells it holds a success for, exactly as core.Resume
// does. Per-cell failures are records, not worker failures; Worker
// errors when the journal is refused, the stream breaks, or the sweep
// is cancelled (an error matching core.ErrCancelled). wrap decorates
// the stream's sink (nil = none), for fault injection.
func Worker(exp core.Experiment, r core.ShardRange, resumeFrom string, stdout io.Writer, wrap journal.WrapSink) error {
	configs, runs, _ := exp.Grid()
	if n := len(configs) * runs; r.Hi > n {
		return fmt.Errorf("shard: range %s outside the %d-cell grid", r, n)
	}
	h := exp.JournalHeader()
	log := &journal.Log{Header: &h}
	if resumeFrom != "" {
		var err error
		if log, err = journal.Read(resumeFrom); err != nil {
			return err
		}
	}
	w := journal.Stream(stdout, wrap)
	if err := w.WriteHeader(h); err != nil {
		return err
	}
	exp.Journal = w
	exp.Shard = &r
	out, err := exp.Resume(log)
	if err != nil {
		return err
	}
	for _, cr := range out.PerConfig {
		if cr.Cancelled() > 0 {
			return fmt.Errorf("shard %s: %w", r, core.ErrCancelled)
		}
	}
	return out.JournalErr
}

// Runner spawns one worker attempt over r, copies its stdout into
// stdout, and blocks until it exits; a crashed or failed worker is a
// non-nil error.
type Runner func(r core.ShardRange, stdout io.Writer) error

// WorkerEnv marks a process as a re-exec'd shard worker; ExecRunner
// sets it so test binaries can divert into worker mode from TestMain.
const WorkerEnv = "ASMP_SHARD_EXEC"

// ExitCancelled is the exit code of a cancelled worker (128+SIGINT,
// the shell convention — the same code the CLI uses for an interrupted
// sweep). ExecRunner maps it back to an error wrapping
// core.ErrCancelled, so cancellation stays typed across the exec
// boundary and the supervisor's contract (no respawn, exit with the
// resume hint) holds for process workers exactly as it does
// for in-process ones.
const ExitCancelled = 130

// lockedWriter serializes writes from concurrently exiting workers
// into the supervisor's single stderr (os/exec copies each child's
// stderr from its own goroutine).
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// SyncWriter wraps w so concurrent writers — the supervisor's own log
// lines and the stderr streams of exiting workers — never race on the
// underlying writer. The supervisor's caller wraps its stderr once and
// shares the result with Supervise's Logf and ExecRunner.
func SyncWriter(w io.Writer) io.Writer { return &lockedWriter{w: w} }

// ExecRunner returns the production Runner: re-exec bin with the
// sweep's own arguments plus the hidden -shardworker flag. The
// worker's stdout is its record stream; os/exec copies it on a
// goroutine of its own, so the worker never waits on the supervisor's
// fsyncs. The workers' stderr streams are forwarded through one lock
// (supervision messages interleave by line, never by byte).
func ExecRunner(bin string, baseArgs []string, stderr io.Writer) Runner {
	shared := &lockedWriter{w: stderr}
	return func(r core.ShardRange, stdout io.Writer) error {
		args := append(append([]string{}, baseArgs...), "-shardworker", r.String())
		cmd := exec.Command(bin, args...)
		// Export the supervisor's disk result-cache directory so every
		// worker — first spawns and post-crash respawns alike — shares
		// one cache: a respawned worker warm-hits the cells its dead
		// predecessor already published instead of re-simulating them.
		// Appended last, the entry overrides any inherited value, so a
		// cache-less supervisor (empty dir) also disables its workers'.
		cmd.Env = append(os.Environ(),
			WorkerEnv+"=1",
			resultcache.EnvDir+"="+core.ResultCacheDir())
		cmd.Stdout = stdout
		cmd.Stderr = shared
		err := cmd.Run()
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == ExitCancelled {
			return fmt.Errorf("shard %s: worker exited %d: %w", r, ExitCancelled, core.ErrCancelled)
		}
		return err
	}
}

// cancelled reports whether err marks a cancelled worker (the one
// failure the supervisor must not retry).
func cancelled(err error) bool { return errors.Is(err, core.ErrCancelled) }
