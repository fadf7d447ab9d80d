package figures

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/report"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/stats"
	"asmp/internal/workload"
	"asmp/internal/workload/gc"
	"asmp/internal/workload/jappserver"
	"asmp/internal/workload/jbb"
	"asmp/internal/workload/omp"
	"asmp/internal/workload/pmake"
	"asmp/internal/workload/web"
)

// Extension experiment: the ablations of DESIGN.md §5. The paper's
// point 4 asks what mechanisms sit behind asymmetry instability; each
// ablation switches one mechanism of the model on or off (or sweeps
// it) and reports the quantity that mechanism is claimed to move. One
// row per variant, in DESIGN §5's order.

// ablationRow is one variant of one ablation and how to measure it.
type ablationRow struct {
	ablation, variant, metric string
	measure                   func(Options) float64
}

// ablationSample runs w on cfg under opt, seeded as the runs of a
// one-configuration sweep (core.RunSeed(seed, 0, i)). Quick mode halves
// runs above one.
func ablationSample(o Options, w workload.Workload, cfg string, opt sched.Options, runs int) *stats.Sample {
	if runs > 1 {
		runs = o.runs(runs)
	}
	s := &stats.Sample{}
	for i := 0; i < runs; i++ {
		s.Add(execute(o, w, cpu.MustParseConfig(cfg), opt, core.RunSeed(o.seed(), 0, i)).Value)
	}
	return s
}

// strandedBurst is the forced-migration scenario, hand-built on a
// two-core 1.0/0.125 machine under the aware policy: a 0.1 s task holds
// the fast core at spawn time, so a 1 s burst lands on the slow core,
// and the fast core then goes idle. It returns when the burst finishes.
func strandedBurst(o Options, forced bool) float64 {
	opt := sched.Defaults(sched.PolicyAsymmetryAware)
	opt.NoForcedMigration = !forced
	opt.RandomWakeups = false
	env := sim.NewEnv(o.seed() + 2)
	if o.Cancel != nil {
		env.SetCancel(o.Cancel)
	}
	defer env.Close()
	sched.New(env, cpu.NewMachine(1.0, 0.125), opt)
	var done simtime.Time
	env.Go("short", func(p *sim.Proc) { p.Compute(0.1 * cpu.BaseHz) })
	env.Go("long", func(p *sim.Proc) {
		p.Compute(1.0 * cpu.BaseHz)
		done = p.Now()
	})
	env.Run()
	return float64(done)
}

// sig4 formats v fixed-point to four significant digits (0.001047,
// 1.088, 571.2, 7529), so the smallest CoVs keep their precision.
func sig4(v float64) string {
	prec := 0
	for lim := 999.95; prec < 7 && v != 0 && math.Abs(v) < lim; lim /= 10 {
		prec++
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// ablationRows lists every variant of the eight ablations.
func ablationRows() []ablationRow {
	const asym = "2f-2s/8"
	naive := sched.Defaults(sched.PolicyNaive)
	aware := sched.Defaults(sched.PolicyAsymmetryAware)
	balance := func(ms float64) sched.Options {
		opt := naive
		opt.BalanceInterval = simtime.Duration(ms / 1000)
		return opt
	}
	wakeups := func(random bool) sched.Options {
		opt := naive
		opt.RandomWakeups = random
		return opt
	}
	// specjbb pins the concurrent collector to gcCore; -1 leaves it to
	// the scheduler, as gc.DefaultConfig does.
	specjbb := func(gcCore int) workload.Workload {
		hc := gc.DefaultConfig(gc.ConcurrentGenerational)
		hc.PinToCore = gcCore
		return jbb.New(jbb.Options{Warehouses: 12, GC: gc.ConcurrentGenerational, Heap: &hc})
	}
	apache := func(shared bool) workload.Workload {
		return web.New(web.Options{Server: web.Apache, Load: web.LightLoad, SharedAcceptQueue: shared})
	}
	swim := func(chunk int) workload.Workload {
		return omp.New(omp.Options{Benchmark: "swim", ForceDynamic: true, ForcedChunk: chunk})
	}
	cov := func(w workload.Workload, opt sched.Options) func(Options) float64 {
		return func(o Options) float64 { return ablationSample(o, w, asym, opt, 5).CoV() }
	}
	mean := func(w workload.Workload, runs int) func(Options) float64 {
		return func(o Options) float64 { return ablationSample(o, w, asym, naive, runs).Mean() }
	}
	burst := func(forced bool) func(Options) float64 {
		return func(o Options) float64 { return strandedBurst(o, forced) }
	}
	amdahl := func(linkCycles float64) func(Options) float64 {
		w := pmake.New(pmake.Options{LinkCycles: linkCycles, SerialMemFraction: 0.05})
		return func(o Options) float64 {
			return ablationSample(o, w, "0f-4s/4", aware, 1).Mean() / ablationSample(o, w, "1f-3s/8", aware, 1).Mean()
		}
	}
	maxResp := func(feedback bool) func(Options) float64 {
		w := jappserver.New(jappserver.Options{DisableFeedback: !feedback})
		return func(o Options) float64 {
			return execute(o, w, cpu.MustParseConfig("0f-4s/8"), naive, o.seed()).Extra("resp_max_ms")
		}
	}
	const speedup = "1f-3s/8 speedup over 0f-4s/4"
	return []ablationRow{
		{"balance interval", "25ms", "CoV", cov(apache(false), balance(25))},
		{"balance interval", "100ms", "CoV", cov(apache(false), balance(100))},
		{"balance interval", "400ms", "CoV", cov(apache(false), balance(400))},
		{"wakeup placement", "random", "CoV", cov(specjbb(-1), wakeups(true))},
		{"wakeup placement", "deterministic", "CoV", cov(specjbb(-1), wakeups(false))},
		{"forced migration", "with-migration", "long task (s)", burst(true)},
		{"forced migration", "without-migration", "long task (s)", burst(false)},
		{"OMP chunk size", "chunk1", "runtime (s)", mean(swim(1), 1)},
		{"OMP chunk size", "chunk16", "runtime (s)", mean(swim(16), 1)},
		{"OMP chunk size", "chunk128", "runtime (s)", mean(swim(128), 1)},
		{"GC pinning", "fast-core", "txn/s", mean(specjbb(0), 2)},
		{"GC pinning", "slow-core", "txn/s", mean(specjbb(3), 2)},
		{"serial fraction", "short-link", speedup, amdahl(0.2e9)},
		{"serial fraction", "long-link", speedup, amdahl(4e9)},
		{"feedback", "with-feedback", "max response (ms)", maxResp(true)},
		{"feedback", "without-feedback", "max response (ms)", maxResp(false)},
		{"connection affinity", "keepalive-affinity", "CoV", cov(apache(false), naive)},
		{"connection affinity", "shared-accept-queue", "CoV", cov(apache(true), naive)},
	}
}

func init() {
	register(Figure{
		ID:    "ablation",
		Title: "Extension: ablations of the mechanisms behind asymmetry instability",
		Paper: "Not a figure in the paper. Point 4 of the conclusions asks which mechanisms make asymmetric machines unpredictable; each ablation here switches one mechanism of the model on or off and measures what it moves.",
		Run: func(o Options) []*report.Table {
			rows := ablationRows()
			vals := make([]float64, len(rows))
			pmap(len(rows), func(i int) { vals[i] = rows[i].measure(o) })
			t := &report.Table{
				Title:   "Ablations on 2f-2s/8 unless the metric names a configuration",
				Columns: []string{"ablation", "variant", "metric", "value"},
			}
			at := map[string]float64{}
			for i, r := range rows {
				t.AddRow(r.ablation, r.variant, r.metric, sig4(vals[i]))
				at[r.variant] = vals[i]
			}
			t.AddNote("runs per variant: %d for the CoV rows, %d for GC pinning, 1 elsewhere; feedback runs on 0f-4s/8, forced migration on a hand-built 2-core 1.0/0.125 machine",
				o.runs(5), o.runs(2))
			t.AddNote("measured: SPECjbb CoV %s with random wakeup placement vs %s with deterministic placement",
				sig4(at["random"]), sig4(at["deterministic"]))
			chunks := []string{"chunk1", "chunk16", "chunk128"}
			sort.SliceStable(chunks, func(i, j int) bool { return at[chunks[i]] < at[chunks[j]] })
			for i, c := range chunks {
				chunks[i] = fmt.Sprintf("%s %s s", c, sig4(at[c]))
			}
			t.AddNote("measured: OMP swim runtime by chunk size, fastest first: %s", strings.Join(chunks, " < "))
			return []*report.Table{t}
		},
	})
}
