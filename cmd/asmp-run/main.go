// Command asmp-run regenerates the paper's tables and figures from the
// simulation models.
//
// Usage:
//
//	asmp-run -list                 # list all regenerable figures
//	asmp-run -fig 2a               # regenerate Figure 2(a)
//	asmp-run -fig table1 -quick    # Table 1, reduced repetitions
//	asmp-run -fig fault -quick     # the fault-injection extension
//	asmp-run -all                  # everything (slow)
//	asmp-run -fig 4a -csv          # emit CSV instead of a text table
//	asmp-run -all -journal figs.jsonl            # then ^C ...
//	asmp-run -all -journal figs.jsonl -resume    # skip completed figures
//
// With -journal, every completed figure's rendered output is appended to
// an append-only JSONL journal. SIGINT stops the run at the next figure
// boundary (a second SIGINT kills immediately); rerunning with -resume
// replays completed figures from the journal and regenerates only the
// missing ones.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"asmp/internal/cli"
	"asmp/internal/figures"
	"asmp/internal/journal"
)

// exitCancelled is the exit code for an interrupted run (128+SIGINT,
// the shell convention).
const exitCancelled = 130

func main() { cli.Main(runWith) }

// run is the testable entry point: it parses args, writes to the given
// streams and returns the process exit code. Every error path prints a
// one-line message and returns non-zero; nothing panics.
func run(args []string, stdout, stderr io.Writer) int {
	return runWith(args, stdout, stderr, nil)
}

// runWith is run with an explicit cancel signal (closed by main's
// SIGINT handler, or by tests). Cancellation is honoured at figure
// granularity: the figure in flight completes, later ones are skipped.
func runWith(args []string, stdout, stderr io.Writer, cancel <-chan struct{}) (code int) {
	fs := cli.NewFlagSet("asmp-run", stderr)
	var (
		fig   = fs.String("fig", "", "figure id to regenerate (e.g. 1a, 4b, 10, table1, micro, fault)")
		all   = fs.Bool("all", false, "regenerate every figure")
		list  = fs.Bool("list", false, "list available figures")
		quick = fs.Bool("quick", false, "fewer repetitions (faster, same shapes)")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned text")
		seed  = fs.Uint64("seed", 1, "base random seed")
		out   = fs.String("out", "", "directory to also write per-figure .txt and .csv files into")
		jf    = cli.JournalFlags(fs, "figure")
		prof  = cli.ProfileFlags(fs)
		host  = cli.HostFlags(fs)
	)
	if !cli.Parse(fs, args) {
		return 2
	}
	wrap, err := jf.Check()
	if err == nil {
		err = host.SetWorkers()
	}
	if err == nil {
		err = host.AttachCache()
	}
	if err == nil {
		err = prof.Start()
	}
	if err != nil {
		fmt.Fprintln(stderr, "asmp-run:", err)
		return 2
	}
	defer prof.Stop(&code)

	var figs []figures.Figure
	switch {
	case *list:
		for _, f := range figures.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", f.ID, f.Title)
			fmt.Fprintf(stdout, "         paper: %s\n", f.Paper)
		}
		return 0
	case *all:
		figs = figures.All()
	case *fig != "":
		f, ok := figures.Get(*fig)
		if !ok {
			fmt.Fprintf(stderr, "asmp-run: unknown figure %q; use -list\n", *fig)
			return 2
		}
		figs = []figures.Figure{f}
	default:
		fs.Usage()
		return 2
	}

	jlog, jw, err := jf.Open(wrap)
	switch {
	case err != nil:
	case jlog != nil:
		err = validateHeader(jlog, *seed, *quick)
	case jw != nil:
		err = jw.WriteHeader(journal.Header{Tool: "asmp-run", BaseSeed: *seed, Quick: *quick})
	}
	if err != nil {
		if jw != nil {
			if cerr := jw.Close(); cerr != nil {
				fmt.Fprintln(stderr, "asmp-run:", cerr)
			}
		}
		fmt.Fprintln(stderr, "asmp-run:", err)
		return 2
	}

	opt := figures.Options{Quick: *quick, Seed: *seed}
	for _, f := range figs {
		if isCancelled(cancel) {
			fmt.Fprintf(stderr, "asmp-run: interrupted before figure %s\n", f.ID)
			if jf.Path != "" {
				fmt.Fprintf(stderr, "asmp-run: rerun with -journal %s -resume to complete\n", jf.Path)
			}
			code = exitCancelled
			break
		}
		if jlog != nil {
			if rec := jlog.Figure(f.ID); rec != nil {
				if err := restoreOne(f, rec, *csv, *out, stdout, stderr); err != nil {
					fmt.Fprintln(stderr, "asmp-run:", err)
					code = 1
					break
				}
				continue
			}
		}
		if err := runOne(f, opt, *csv, *out, stdout, stderr, jw); err != nil {
			fmt.Fprintln(stderr, "asmp-run:", err)
			code = 1
			break
		}
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			fmt.Fprintf(stderr, "asmp-run: journal incomplete: %v\n", err)
		}
	}
	return code
}

// validateHeader checks a resumed journal was written by asmp-run with
// the same seed and resolution.
func validateHeader(log *journal.Log, seed uint64, quick bool) error {
	h := log.Header
	if h == nil {
		return fmt.Errorf("journal %s has no header; cannot verify it belongs to this run", log.Path)
	}
	if h.Tool != "asmp-run" {
		return fmt.Errorf("journal %s was written by %q, not asmp-run", log.Path, h.Tool)
	}
	if h.BaseSeed != seed {
		return fmt.Errorf("journal %s records a different run: seed %d, this run has %d", log.Path, h.BaseSeed, seed)
	}
	if h.Quick != quick {
		return fmt.Errorf("journal %s records a different run: quick=%v, this run has quick=%v", log.Path, h.Quick, quick)
	}
	return nil
}

// isCancelled reports whether the cancel signal has fired.
func isCancelled(c <-chan struct{}) bool {
	if c == nil {
		return false
	}
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// emit prints the chosen form and mirrors both into outDir when set.
func emit(id, txt, csvText string, csv bool, outDir string, stdout io.Writer) error {
	if csv {
		fmt.Fprint(stdout, csvText)
	} else {
		fmt.Fprint(stdout, txt)
	}
	if outDir != "" {
		// Figure artifacts are derived outputs regenerated from the journal,
		// not journal state: losing one to a crash costs a re-render, never
		// resumability, so the journal/faultio seam does not apply.
		if err := os.MkdirAll(outDir, 0o755); err != nil { //asmp:allow sinkseam figure output dir, not journal state
			return err
		}
		base := filepath.Join(outDir, "fig-"+id)
		if err := os.WriteFile(base+".txt", []byte(txt), 0o644); err != nil { //asmp:allow sinkseam derived figure artifact, regenerable from the journal
			return err
		}
		if err := os.WriteFile(base+".csv", []byte(csvText), 0o644); err != nil { //asmp:allow sinkseam derived figure artifact, regenerable from the journal
			return err
		}
	}
	return nil
}

// runOne regenerates one figure, journaling its rendered output when a
// journal is attached. The wall-clock status line goes to stderr — and
// only to stderr — so timing noise can never contaminate the golden
// report/digest comparisons made over stdout; stdout gets a blank
// separator line between figures.
func runOne(f figures.Figure, opt figures.Options, csv bool, outDir string, stdout, stderr io.Writer, jw *journal.Writer) error {
	start := time.Now() //asmp:allow walltime CLI progress timing, printed to stderr only
	tables := f.Run(opt)
	elapsed := time.Since(start) //asmp:allow walltime CLI progress timing, printed to stderr only
	var txt, csvBuf strings.Builder
	for _, t := range tables {
		txt.WriteString(t.String())
		txt.WriteByte('\n')
		csvBuf.WriteString(t.CSV())
	}
	if err := emit(f.ID, txt.String(), csvBuf.String(), csv, outDir, stdout); err != nil {
		return err
	}
	if jw != nil {
		if err := jw.WriteFigure(journal.Figure{ID: f.ID, Txt: txt.String(), Csv: csvBuf.String()}); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "[figure %s regenerated in %v]\n", f.ID, elapsed.Round(time.Millisecond))
	fmt.Fprintln(stdout)
	return nil
}

// restoreOne replays a completed figure from the journal instead of
// recomputing it. Like runOne, the status line goes to stderr and the
// figure separator to stdout.
func restoreOne(f figures.Figure, rec *journal.Figure, csv bool, outDir string, stdout, stderr io.Writer) error {
	if err := emit(f.ID, rec.Txt, rec.Csv, csv, outDir, stdout); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "[figure %s restored from journal]\n", f.ID)
	fmt.Fprintln(stdout)
	return nil
}
