// Command asmp-trace runs one workload with scheduler tracing enabled
// and prints what the kernel actually did: migrations, steals, forced
// migrations, and a per-core dispatch timeline. It is the microscope for
// the placement effects the figures measure in aggregate.
//
// Usage:
//
//	asmp-trace -workload specjbb -config 2f-2s/8
//	asmp-trace -workload apache -config 2f-2s/8 -policy aware -events
//	asmp-trace -workload tpch -config 1f-3s/8 -kind migrate
//	asmp-trace -workload specjbb -config 4f-0s -fault "offline@1.5s:0,online@3.5s:0"
package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"asmp/internal/cli"
	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/fault"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/trace"
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

// exitCancelled is the exit code for an interrupted run (128+SIGINT,
// the shell convention).
const exitCancelled = 130

func main() { cli.Main(runWith) }

// run is the testable entry point: it parses args, writes to the given
// streams and returns the process exit code. Every error path prints a
// one-line message and returns non-zero; nothing panics — a run that
// trips a watchdog or crashes is reported as an error.
func run(args []string, stdout, stderr io.Writer) int {
	return runWith(args, stdout, stderr, nil)
}

// runWith is run with an explicit cancel signal (closed by main's
// SIGINT handler, or by tests). A cancelled run still prints the trace
// captured up to the interruption — the microscope works on partial
// observations too.
func runWith(args []string, stdout, stderr io.Writer, cancel <-chan struct{}) int {
	fs := cli.NewFlagSet("asmp-trace", stderr)
	var (
		name     = fs.String("workload", "specjbb", "registered workload name")
		cfgName  = fs.String("config", "2f-2s/8", "machine configuration (nf-ms/scale)")
		policy   = fs.String("policy", "naive", "scheduler policy: "+sched.PolicyUsage)
		seed     = fs.Uint64("seed", 1, "random seed")
		events   = fs.Bool("events", false, "print the raw event log (last -buffer events)")
		kindSel  = fs.String("kind", "", "with -events: only this kind (migrate, steal, forced-migrate, ...)")
		bufCap   = fs.Int("buffer", 100000, "trace ring-buffer capacity")
		faultStr = fs.String("fault", "", `fault plan injected into the run, e.g. "offline@1.5s:0,online@3.5s:0"`)
		timeout  = fs.String("timeout", "", "virtual-time watchdog, e.g. 30s or 2min")
	)
	if !cli.Parse(fs, args) {
		return 2
	}

	w, err := workload.New(*name)
	if err != nil {
		fmt.Fprintln(stderr, "asmp-trace:", err)
		return 2
	}
	cfg, err := cpu.ParseConfig(*cfgName)
	if err != nil {
		fmt.Fprintln(stderr, "asmp-trace:", err)
		return 2
	}
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(stderr, "asmp-trace:", err)
		return 2
	}
	if *bufCap < 1 {
		fmt.Fprintf(stderr, "asmp-trace: -buffer must be at least 1, got %d\n", *bufCap)
		return 2
	}
	var plan *fault.Plan
	if *faultStr != "" {
		plan, err = fault.Parse(*faultStr)
		if err != nil {
			fmt.Fprintln(stderr, "asmp-trace:", err)
			return 2
		}
		if err := plan.Validate(cfg.Fast + cfg.Slow); err != nil {
			fmt.Fprintln(stderr, "asmp-trace:", err)
			return 2
		}
	}
	limits, err := core.ParseTimeout(*timeout, "-")
	if err != nil {
		fmt.Fprintln(stderr, "asmp-trace:", err)
		return 2
	}

	buf := trace.New(*bufCap)
	res, st, err := tracedRun(w, cfg, pol, *seed, plan, limits, buf, cancel)
	fmt.Fprintf(stdout, "workload %s on %s under the %v scheduler (seed %d)\n", w.Name(), cfg, pol, *seed)
	switch {
	case errors.Is(err, core.ErrCancelled):
		// An interrupted run is still a trace: print everything the
		// buffer captured up to the cancellation point.
		fmt.Fprintf(stdout, "run interrupted: %v\n", err)
		fmt.Fprintf(stdout, "partial trace below (%d events captured)\n", buf.Total())
		printTimeline(stdout, buf)
		printEvents(stdout, buf, *events, *kindSel)
		fmt.Fprintln(stderr, "asmp-trace: interrupted")
		return exitCancelled
	case err != nil:
		fmt.Fprintln(stderr, "asmp-trace:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result: %s = %.4g\n", res.Metric, res.Value)
	fmt.Fprintf(stdout, "run digest: %s\n\n", res.Digest)

	fmt.Fprintf(stdout, "scheduler activity: %d dispatches, %d preemptions, %d migrations (%d steals, %d forced)\n",
		st.Dispatches, st.Preemptions, st.Migrations, st.Steals, st.ForcedMigrations)
	if st.Offlines+st.Stalls > 0 {
		fmt.Fprintf(stdout, "fault activity: %d offlines, %d onlines, %d stalls, %d drain migrations\n",
			st.Offlines, st.Onlines, st.Stalls, st.DrainMigrations)
	}
	fmt.Fprintf(stdout, "per-core busy seconds:")
	for i, b := range st.BusySeconds {
		fmt.Fprintf(stdout, "  core%d=%.2f", i, b)
	}
	fmt.Fprintln(stdout)
	if st.FastIdleSlowBusy > 0 {
		fmt.Fprintf(stdout, "fast-idle-while-slow-queued: %.3fs (the aware policy keeps this at zero)\n", st.FastIdleSlowBusy)
	}

	printTimeline(stdout, buf)
	printEvents(stdout, buf, *events, *kindSel)
	return 0
}

// printTimeline renders the per-core dispatch timeline from the buffer.
func printTimeline(stdout io.Writer, buf *trace.Buffer) {
	fmt.Fprintln(stdout, "\nper-core dispatch timeline (who ran where):")
	tl := buf.CoreTimeline()
	var cores []int
	for c := range tl {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		type pc struct {
			name string
			n    int
		}
		var ps []pc
		for name, n := range tl[c] {
			ps = append(ps, pc{name, n})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].n > ps[j].n })
		var parts []string
		for i, p := range ps {
			if i == 6 {
				parts = append(parts, fmt.Sprintf("… %d more", len(ps)-i))
				break
			}
			parts = append(parts, fmt.Sprintf("%s×%d", p.name, p.n))
		}
		fmt.Fprintf(stdout, "  core%d: %s\n", c, strings.Join(parts, ", "))
	}
}

// printEvents renders the raw event log when requested.
func printEvents(stdout io.Writer, buf *trace.Buffer, events bool, kindSel string) {
	if !events {
		return
	}
	fmt.Fprintln(stdout, "\nevent log:")
	for _, e := range buf.Events() {
		if kindSel != "" && e.Kind.String() != kindSel {
			continue
		}
		fmt.Fprintln(stdout, " ", e)
	}
	if buf.Total() > buf.Len() {
		fmt.Fprintf(stdout, "  (%d earlier events evicted; raise -buffer to keep more)\n", buf.Total()-buf.Len())
	}
}

// tracedRun executes one run with the tracer attached, converting any
// panic (workload bug, tripped watchdog, bad fault plan, cancellation)
// into an error.
func tracedRun(w workload.Workload, cfg cpu.Config, pol sched.Policy, seed uint64, plan *fault.Plan, limits sim.Limits, buf *trace.Buffer, cancel <-chan struct{}) (res workload.Result, st sched.Stats, err error) {
	res, err = core.ExecuteSafe(core.RunSpec{
		Workload: w,
		Config:   cfg,
		Sched:    sched.Defaults(pol),
		Seed:     seed,
		Fault:    plan,
		Limits:   limits,
		Tracer:   buf,
		Cancel:   cancel,
		Observe:  func(s *sched.Scheduler) { st = s.Stats() },
	})
	return res, st, err
}
