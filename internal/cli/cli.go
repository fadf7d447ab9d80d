// Package cli binds what the asmp commands share: the signal wiring of
// main, one flag set per command with hidden flags left out of -h, and
// the flags several commands repeat — the host's worker pool and disk
// result cache, pprof profiles, and the journal with its resume and
// crash-injection flags. Each command keeps its own flags, run logic,
// exit codes and error wording; this package only parses, validates and
// wires, and prefixes its messages with the command's name.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"

	"asmp/internal/core"
	"asmp/internal/faultio"
	"asmp/internal/journal"
	"asmp/internal/resultcache"
)

// Main runs a command's entry point on the process's arguments and
// streams and exits with its code. The first SIGINT or SIGTERM closes
// cancel; a second one terminates immediately via default handling.
func Main(run func(args []string, stdout, stderr io.Writer, cancel <-chan struct{}) int) {
	cancel := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(cancel)
		signal.Stop(sig)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, cancel))
}

// NewFlagSet returns a command's one flag set: parse errors and usage go
// to stderr, and usage lists every flag but the hidden ones.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(fs) }
	return fs
}

// Hidden registers a flag that parses like any other but is left out of
// -h: plumbing for tests and for a command re-executing itself, not for
// users. It is marked by its empty help text.
func Hidden(fs *flag.FlagSet, name string, set func(string) error) {
	fs.Func(name, "", set)
}

// usage prints what flag's default usage prints, without hidden flags.
func usage(fs *flag.FlagSet) {
	shown := flag.NewFlagSet(fs.Name(), flag.ContinueOnError)
	shown.SetOutput(fs.Output())
	fs.VisitAll(func(f *flag.Flag) {
		if f.Usage != "" {
			shown.Var(f.Value, f.Name, f.Usage)
			// Var records the value's current text as the default,
			// which a parse that stopped midway may already have set.
			shown.Lookup(f.Name).DefValue = f.DefValue
		}
	})
	fmt.Fprintf(fs.Output(), "Usage of %s:\n", fs.Name())
	shown.PrintDefaults()
}

// Parse parses args into fs and refuses positional arguments. It
// reports false once the problem is on stderr; the command exits 2.
func Parse(fs *flag.FlagSet, args []string) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q (flags only)\n", fs.Name(), fs.Arg(0))
		return false
	}
	return true
}

// Host is the host resources a command runs on: -workers, and the disk
// result cache of -cache-dir, -no-cache and -cache-max-mb. Neither
// changes a byte of output (DESIGN.md §12).
type Host struct {
	// Workers is the host worker-pool size: 0 = GOMAXPROCS.
	Workers  int
	cacheDir string
	noCache  bool
	cacheMax int
}

// HostFlags registers the host flags on fs.
func HostFlags(fs *flag.FlagSet) *Host {
	h := new(Host)
	fs.IntVar(&h.Workers, "workers", 0, "host worker-pool size: 0 = GOMAXPROCS, 1 = sequential (results are identical either way)")
	fs.StringVar(&h.cacheDir, "cache-dir", resultcache.DirFromEnv(), "disk result-cache directory shared across processes (default $ASMP_CACHE_DIR; empty = no cache; results are identical either way)")
	fs.BoolVar(&h.noCache, "no-cache", false, "ignore -cache-dir and $ASMP_CACHE_DIR: simulate every cell")
	fs.IntVar(&h.cacheMax, "cache-max-mb", resultcache.MaxMBFromEnv(), "size cap for -cache-dir in MiB, enforced LRU (default $ASMP_CACHE_MAX_MB; 0 = uncapped)")
	return h
}

// SetWorkers checks -workers and makes it the default pool size.
func (h *Host) SetWorkers() error {
	if h.Workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", h.Workers)
	}
	core.SetDefaultWorkers(h.Workers)
	return nil
}

// AttachCache attaches the process-wide disk result cache, or detaches
// it with -no-cache or no directory. It always sets one or the other,
// so repeated in-process invocations (tests) never inherit a previous
// run's cache. Shard workers inherit the supervisor's directory through
// $ASMP_CACHE_DIR (shard.ExecRunner exports it).
func (h *Host) AttachCache() error {
	dir := h.cacheDir
	if h.noCache {
		dir = ""
	}
	return core.AttachResultCache(dir, h.cacheMax)
}

// Profile is -cpuprofile and -memprofile. Profiles are observability
// only: a profiled run's output is byte-identical.
type Profile struct {
	cpu, mem string
	cpuFile  *os.File
	fs       *flag.FlagSet
}

// ProfileFlags registers the profiling flags on fs.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{fs: fs}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file (observability only; output is unaffected)")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this file on exit")
	return p
}

// Start begins the -cpuprofile profile. The caller defers Stop.
func (p *Profile) Start() error {
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu) //asmp:allow sinkseam a pprof profile is observability output, not journal state
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("profiling: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop ends the CPU profile and writes the -memprofile allocation
// profile, forcing a collection first so it shows live state rather
// than GC timing. A failure is reported on stderr and turns an exit
// code of 0 into 1.
func (p *Profile) Stop(code *int) {
	var errs []error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpuFile.Close())
	}
	if p.mem != "" {
		errs = append(errs, writeHeap(p.mem))
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(p.fs.Output(), "%s: profiling: %v\n", p.fs.Name(), err)
		if *code == 0 {
			*code = 1
		}
	}
}

func writeHeap(path string) error {
	f, err := os.Create(path) //asmp:allow sinkseam a pprof profile is observability output, not journal state
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Journal is -journal and -resume, plus the hidden -crashat N, which
// tears the journal's write stream at byte N through an injected fault
// sink, leaving exactly the file a crash at that byte would leave, so
// the crash-consistency matrix (DESIGN.md §9) runs against the real
// commands.
type Journal struct {
	Path   string
	Resume bool
	// TearAt is -crashat's byte offset, if tear is set.
	TearAt int64
	tear   bool
	fs     *flag.FlagSet
}

// JournalFlags registers the journal flags on fs; unit names what one
// journal record holds ("figure", "cell").
func JournalFlags(fs *flag.FlagSet, unit string) *Journal {
	j := &Journal{fs: fs}
	fs.StringVar(&j.Path, "journal", "", "append every completed "+unit+" to this JSONL journal (enables -resume)")
	fs.BoolVar(&j.Resume, "resume", false, "resume the run recorded in -journal, re-running only missing or failed "+unit+"s")
	Hidden(fs, "crashat", func(v string) error {
		at, err := strconv.ParseInt(v, 10, 64)
		if err != nil || at < 0 {
			return errors.New("want a non-negative byte offset")
		}
		j.TearAt, j.tear = at, true
		return nil
	})
	return j
}

// Check refuses -resume and -crashat without -journal, and returns the
// sink wrapper -crashat asks for (nil without it).
func (j *Journal) Check() (journal.WrapSink, error) {
	if j.Path == "" && j.Resume {
		return nil, errors.New("-resume requires -journal")
	}
	if !j.tear {
		return nil, nil
	}
	if j.Path == "" {
		return nil, errors.New("-crashat requires -journal")
	}
	return faultio.Plan{Tear: true, TearAt: j.TearAt}.Wrap(), nil
}

// Open opens -journal through wrap: created afresh, or with -resume
// read back (a torn tail, the interrupted write, is truncated with a
// notice on stderr) and reopened for appending. A resumed journal that
// is damaged beyond a torn tail is set aside, so the operator can rerun
// at once and still inspect the damage; the error names where it went.
// Without -journal Open returns nothing.
func (j *Journal) Open(wrap journal.WrapSink) (*journal.Log, *journal.Writer, error) {
	switch {
	case j.Path == "":
		return nil, nil, nil
	case !j.Resume:
		w, err := journal.CreateVia(j.Path, wrap)
		return nil, w, err
	}
	log, w, err := journal.ResumeVia(j.Path, wrap)
	var de *journal.DamagedError
	switch {
	case errors.As(err, &de):
		aside, aerr := journal.SetAside(j.Path)
		if aerr != nil {
			return nil, nil, fmt.Errorf("%w; could not set the damaged journal aside: %w", err, aerr)
		}
		return nil, nil, fmt.Errorf("%w; damaged journal set aside to %s; rerun with -journal %s to start afresh", err, aside, j.Path)
	case err != nil:
		return nil, nil, err
	}
	if log.Dropped > 0 {
		fmt.Fprintf(j.fs.Output(), "%s: journal had a corrupt tail (%d line(s), the interrupted write); truncated\n", j.fs.Name(), log.Dropped)
	}
	return log, w, nil
}
