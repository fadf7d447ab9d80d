package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// child is one finished CLI invocation.
type child struct {
	stdout, stderr []byte
	start, end     time.Time
	// wall, cpu and maxRSSKB are the CLI's own, as the shim measured
	// them; cpu counts every descendant it reaped (a sharded sweep's
	// workers included).
	wall     time.Duration
	cpu      time.Duration
	maxRSSKB int64
	// err is a start failure or a non-zero exit.
	err error
}

// shimArg, as the first argument, makes asmp-bench a measuring shim: it
// runs the command that follows with the shim's stdio, exits with its
// status, and writes its wall time, CPU time and peak RSS to file
// descriptor 3. With no command it exits at once (spawnKernel's work).
// Linux starts a child's peak-RSS count at its parent's high-water
// mark, so a CLI started by this (much larger) process would report the
// benchmark's memory; started by the fresh, small shim it reports its
// own.
const shimArg = "-measure-child"

func runShim(args []string) int {
	if len(args) == 0 {
		return 0
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now() //asmp:allow walltime benchmark timing
	err := cmd.Run()
	wall := time.Since(start) //asmp:allow walltime benchmark timing
	cpu, rss := usage(cmd.ProcessState)
	report := os.NewFile(3, "report")
	if _, werr := fmt.Fprintf(report, "%d %d %d\n", wall, cpu, rss); werr != nil {
		fmt.Fprintln(os.Stderr, "asmp-bench shim:", werr)
		return 1
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit) && exit.ExitCode() > 0:
		return exit.ExitCode()
	}
	fmt.Fprintln(os.Stderr, "asmp-bench shim:", err)
	return 1
}

// build compiles the CLIs of the checkout under test into b.bin.
func (b *bench) build() error {
	cmd := exec.CommandContext(b.ctx, "go", "build", "-o", b.bin+string(filepath.Separator),
		"./cmd/asmp-run", "./cmd/asmp-sweep", "./cmd/asmp-serve")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the CLIs: %w\n%s", err, out)
	}
	return nil
}

// command prepares a program to run in the work directory with a
// scrubbed environment: no inherited cache settings, and a temp dir
// inside the work directory.
func (b *bench) command(path string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(b.ctx, path, args...)
	cmd.Dir = b.work
	env := []string{"TMPDIR=" + b.tmp}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "ASMP_") || strings.HasPrefix(kv, "TMPDIR=") {
			continue
		}
		env = append(env, kv)
	}
	cmd.Env = env
	// A child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// run executes one of the built CLIs to completion through the shim
// and measures it.
func (b *bench) run(name string, args ...string) child {
	r, w, err := os.Pipe()
	if err != nil {
		return child{err: err}
	}
	defer r.Close()
	cmd := b.command(b.self, append([]string{shimArg, filepath.Join(b.bin, name)}, args...)...)
	cmd.ExtraFiles = []*os.File{w}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now() //asmp:allow walltime benchmark timing
	err = cmd.Run()
	end := time.Now() //asmp:allow walltime benchmark timing
	w.Close()
	c := child{stdout: stdout.Bytes(), stderr: stderr.Bytes(), start: start, end: end}
	report, rerr := io.ReadAll(r)
	var wall, cpu int64
	n, _ := fmt.Sscanf(string(report), "%d %d %d", &wall, &cpu, &c.maxRSSKB)
	switch {
	case err != nil:
	case rerr != nil:
		err = rerr
	case n != 3:
		err = fmt.Errorf("the shim reported no measurement: %q", report)
	}
	c.wall, c.cpu = time.Duration(wall), time.Duration(cpu)
	if err != nil {
		c.err = fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, lastLine(c.stderr))
	}
	return c
}

// settleDisk flushes every filesystem (sync(2)), so work the kernel
// defers — above all discarding the blocks of files a run removed — is
// paid now, outside any measurement, instead of slowing the fsyncs of
// whatever is timed next.
func settleDisk() { syscall.Sync() }

// usage extracts CPU time and peak RSS from a reaped process.
func usage(ps *os.ProcessState) (time.Duration, int64) {
	if ps == nil {
		return 0, 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return ps.UserTime() + ps.SystemTime(), ru.Maxrss
}

func lastLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
