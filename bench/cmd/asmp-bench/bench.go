package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// params sizes a run. Full runs and -smoke runs differ only here.
type params struct {
	// figArgs selects what regen-cold and regen-warm regenerate.
	figArgs []string
	// golden marks figArgs output as pinned, for seed 1, inside
	// results/figures-full.txt.
	golden bool
	// sweepRuns is sweep-sharded's -runs (nine configurations each).
	sweepRuns int
	// rate is serve-mixed's open-loop arrival rate per second.
	rate float64
	// setups is how many times a run sets up; setup_s is their median.
	setups int
}

var (
	fullParams  = params{figArgs: []string{"-fig", "10"}, golden: true, sweepRuns: 50, rate: 25, setups: 3}
	smokeParams = params{figArgs: []string{"-fig", "4a", "-quick"}, sweepRuns: 1, rate: 5, setups: 1}
)

const (
	// minOps is the fewest ops a closed-loop run measures, however short
	// its window.
	minOps = 2
	// speedEvery is how often a closed loop re-times the calibration
	// kernel between ops.
	speedEvery = 250 * time.Millisecond
)

// bench is one benchmark run's environment.
type bench struct {
	ctx  context.Context
	root string // repository root of the checkout under test
	work string // this run's scratch directory, removed afterwards
	tmp  string // TMPDIR for the CLIs
	bin  string // where the CLIs are built
	// self is this program, which runs each CLI through its shim mode.
	self string
	// calibDir holds the files the calibration kernels use.
	calibDir string
	// dirs counts the directories newDir made.
	dirs int
	seed uint64
	// window is how long the run measures.
	window time.Duration
	p      params
	spans  *recorder // nil: tracing off
	speed  *speedo
	log    io.Writer
}

// scenario is one benchmark workload's life cycle.
type scenario interface {
	// setUp prepares a measurement with freshly built CLIs, replacing
	// the set-up release freed.
	setUp(b *bench, parent int) error
	// measure runs ops until the deadline, recording them in o.
	measure(b *bench, o *outcome, until time.Time, parent int)
	// check verifies what the run produced beyond each op's own checks.
	check(b *bench, o *outcome)
	// release frees the set-up. o is nil between set-ups; after the
	// measurement release records into it what only teardown reveals.
	release(b *bench, o *outcome)
}

// workloadDef names a workload and says why it is in the benchmark.
type workloadDef struct {
	name, why string
	new       func() scenario
	// kernels are the calibration kernels whose time tracks the
	// workload's ops (see host.go).
	kernels []kernel
}

// workloads are the benchmark's workloads. Later changes cite these
// names; do not rename them.
var workloads = []workloadDef{
	{"regen-cold", "asmp-run regenerates figure 10 with no cache: every cell of all eight models is simulated",
		func() scenario { return &regen{} }, []kernel{computeKernel}},
	{"regen-warm", "asmp-run regenerates figure 10 from a warm disk cache: no cell is simulated, so sim speed-ups must not move it",
		func() scenario { return &regen{warm: true} }, []kernel{spawnKernel, readKernel}},
	{"sweep-sharded", "a 450-cell TPC-H sweep over 2 single-worker shard processes: short procs, per-cell fsync'd journal appends, merge",
		func() scenario { return &sweep{} }, []kernel{computeKernel}},
	{"serve-mixed", "asmp-serve under open-loop Poisson POST /v1/run traffic: half memo repeats of 32 hot cells, half fresh cells of every model",
		func() scenario { return &serve{} }, []kernel{computeKernel}},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// timed is one measurement: an op's latency (from its start, or for a
// served request from its due time, to its end), a set-up's time, or a
// stretch of CPU use. start and end bound the stretch whose host speed
// scales d.
type timed struct {
	start, end time.Time
	d          time.Duration
}

// outcome accumulates one run's measurements and verdicts.
type outcome struct {
	ops []timed
	// repeats and fresh split serve-mixed's requests by kind: its median
	// is taken over the repeats and its 95th percentile over the fresh
	// cells, because half-and-half traffic puts the median of all
	// requests on the gap between the two kinds. The closed-loop
	// workloads have one kind of op and leave both empty.
	repeats, fresh []timed
	cpu            []timed
	setups         []timed
	maxRSSKB       int64
	// attempted and failed count ops; checks counts failed run-level
	// checks. Every failure is also noted for stderr.
	attempted, failed, checks int
	notes                     []string
}

// addChild records a measured CLI invocation as one op.
func (o *outcome) addChild(c child) {
	o.ops = append(o.ops, timed{c.start, c.end, c.wall})
	o.cpu = append(o.cpu, timed{c.start, c.end, c.cpu})
	o.maxRSSKB = max(o.maxRSSKB, c.maxRSSKB)
}

func (o *outcome) opFailed(err error) {
	o.failed++
	o.notes = append(o.notes, err.Error())
}

func (o *outcome) checkFailed(format string, args ...any) {
	o.checks++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return o.failed == 0 && o.checks == 0 }

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload: repeated set-ups, then (when traced) the
// layer probes, then ops until the window closes, then the checks. It
// returns the result line and the end-to-end values before scaling to
// the reference host speed.
func execute(b *bench, def workloadDef, traced bool) (result, map[string]float64, error) {
	for _, dir := range []string{b.tmp, b.bin} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, nil, err
		}
	}
	b.calibDir = filepath.Join(b.work, "calibration")
	if err := b.prepareCalibration(); err != nil {
		return result{}, nil, err
	}
	settleDisk()
	b.speed = &speedo{kernels: def.kernels}
	sc := def.new()
	o := &outcome{}
	runID, endRun := b.spans.begin("run", def.name, 0, 0, map[string]any{"seed": b.seed})
	defer endRun()
	b.speed.sample(b)
	for i := 0; i < b.p.setups; i++ {
		if i > 0 {
			sc.release(b, nil)
		}
		id, end := b.spans.begin("setup", fmt.Sprintf("setup %d", i+1), runID, 0, nil)
		start := time.Now() //asmp:allow walltime benchmark timing
		_, endBuild := b.spans.begin("setup", "go build", id, 0, nil)
		err := b.build()
		endBuild()
		if err == nil {
			err = sc.setUp(b, id)
		}
		stop := time.Now() //asmp:allow walltime benchmark timing
		end()
		b.speed.sample(b)
		o.setups = append(o.setups, timed{start, stop, stop.Sub(start)})
		if err != nil {
			sc.release(b, nil)
			return result{}, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
	}
	until := time.Now().Add(b.window) //asmp:allow walltime benchmark timing
	var layer map[string]float64
	if traced {
		var err error
		if layer, err = b.probeLayers(runID); err != nil {
			sc.release(b, nil)
			return result{}, nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	id, end := b.spans.begin("measure", def.name, runID, 0, nil)
	sc.measure(b, o, until, id)
	end()
	b.speed.sample(b)
	sc.check(b, o)
	sc.release(b, o)
	for _, n := range o.notes {
		fmt.Fprintln(b.log, "asmp-bench: FAILED:", n)
	}
	if len(o.ops) == 0 {
		return result{}, nil, fmt.Errorf("no op completed")
	}
	if b.speed.err != nil {
		return result{}, nil, fmt.Errorf("calibration: %w", b.speed.err)
	}

	p50Ops, p95Ops := o.ops, o.ops
	if len(o.repeats) > 0 && len(o.fresh) > 0 {
		p50Ops, p95Ops = o.repeats, o.fresh
		fresh, rawFresh := b.scaled(o.fresh, time.Millisecond)
		fmt.Fprintf(b.log, "asmp-bench: %d repeats, %d fresh cells; fresh median %.4g ms at reference speed, %.4g ms raw\n",
			len(o.repeats), len(o.fresh), median(fresh), median(rawFresh))
	}
	p50, rawP50 := b.scaled(p50Ops, time.Millisecond)
	p95, rawP95 := b.scaled(p95Ops, time.Millisecond)
	setup, rawSetup := b.scaled(o.setups, time.Second)
	cpu, rawCPU := b.scaled(o.cpu, time.Millisecond)
	n := float64(len(o.ops))
	got := map[string]float64{
		"op_p50_ms":     percentile(p50, 50),
		"op_p95_ms":     percentile(p95, 95),
		"cpu_ms_per_op": sum(cpu) / n,
		"maxrss_mb":     float64(o.maxRSSKB) / 1024,
		"setup_s":       median(setup),
	}
	raw := map[string]float64{
		"op_p50_ms":     percentile(rawP50, 50),
		"op_p95_ms":     percentile(rawP95, 95),
		"cpu_ms_per_op": sum(rawCPU) / n,
		"maxrss_mb":     got["maxrss_mb"],
		"setup_s":       median(rawSetup),
	}
	fmt.Fprintf(b.log, "asmp-bench: %s seed %d: %d ops; at reference speed p50 %.4g ms, p95 %.4g ms; raw p50 %.4g ms, p95 %.4g ms; calibration median %.3f ms (reference %.1f)\n",
		def.name, b.seed, len(o.ops), got["op_p50_ms"], got["op_p95_ms"], raw["op_p50_ms"], raw["op_p95_ms"], b.speed.medianMs(), b.speed.refMs())

	defs := endToEnd
	if traced {
		defs = perLayer
		layer["trace.op_p50_ms"] = got["op_p50_ms"]
		got = layer
	}
	metrics, err := collect(defs, got)
	if err != nil {
		return result{}, nil, err
	}
	return result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: metrics}, raw, nil
}

// scaled converts intervals to unit, both at the reference host speed and
// as measured.
func (b *bench) scaled(ts []timed, unit time.Duration) (ref, raw []float64) {
	for _, t := range ts {
		v := float64(t.d) / float64(unit)
		raw = append(raw, v)
		ref = append(ref, v*b.speed.scale(t.start, t.end))
	}
	return ref, raw
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// closedLoop runs op back to back until the deadline has passed and at
// least minOps ops have run, timing the calibration kernel between ops
// every speedEvery. op records its own cost in o.
func (b *bench) closedLoop(o *outcome, until time.Time, parent int, op func() error) {
	for i := 0; i < minOps || time.Now().Before(until); i++ { //asmp:allow walltime benchmark timing
		if err := b.ctx.Err(); err != nil {
			o.opFailed(err)
			return
		}
		if b.speed.stale(speedEvery) {
			b.speed.sample(b)
		}
		_, end := b.spans.begin("op", fmt.Sprintf("op %d", i+1), parent, 0, nil)
		err := op()
		end()
		o.attempted++
		if err != nil {
			o.opFailed(err)
		}
	}
}

// newDir creates a directory inside the run's work directory that no
// earlier call returned. Nothing is removed before the run ends:
// removing files makes the disk slow for whatever is timed next.
func (b *bench) newDir(prefix string) (string, error) {
	b.dirs++
	dir := filepath.Join(b.work, fmt.Sprintf("%s-%d", prefix, b.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}
