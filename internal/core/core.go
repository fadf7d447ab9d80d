// Package core is the study framework — the reproduction's primary
// contribution. It runs workload models across machine configurations
// and scheduling policies, repeats runs with independent seeds, and
// quantifies the two properties the paper is about:
//
//   - predictability: how much the metric varies across repeated runs of
//     the same configuration (coefficient of variation of the sample);
//   - scalability: how faithfully the metric tracks the machine's total
//     compute power across configurations.
//
// The paper's experimental design maps directly onto these types: an
// Experiment is one panel of one figure (a workload swept over the nine
// standard configurations with n repetitions), and Classify reproduces
// the qualitative judgements of Table 1.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"asmp/internal/cpu"
	"asmp/internal/digest"
	"asmp/internal/fault"
	"asmp/internal/journal"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/stats"
	"asmp/internal/trace"
	"asmp/internal/workload"
)

// RunSpec describes a single workload execution.
type RunSpec struct {
	// Workload is the benchmark description to run.
	Workload workload.Workload
	// Config is the machine configuration.
	Config cpu.Config
	// Sched configures the OS scheduler model (policy, timeslice, ...).
	Sched sched.Options
	// Seed determines every random choice in the run.
	Seed uint64
	// Fault optionally injects runtime faults (throttles, core unplug,
	// stalls) into the run; nil or empty injects nothing.
	Fault *fault.Plan
	// Limits optionally arms the simulator's watchdogs (max virtual
	// time, max events, deadlock detection); the zero value arms none.
	Limits sim.Limits
	// Tracer, when non-nil, is attached to the scheduler before the
	// workload starts, recording every scheduling decision (asmp-trace).
	// It observes the same event stream the run digest folds over.
	Tracer trace.Tracer
	// Cancel, when non-nil, cooperatively stops the run when closed: the
	// simulator aborts at the next event boundary and the run fails with
	// an error matching ErrCancelled.
	Cancel <-chan struct{}
	// Observe, when non-nil, is called with the scheduler after the
	// workload returns (and before teardown), so callers can capture the
	// final Stats even through the panic-isolating ExecuteSafe path. It
	// is not called when the run fails.
	Observe func(*sched.Scheduler)
	// faultText is Fault.String(), when the Experiment that built this
	// spec rendered it once for all its cells (cellSpec); "" renders
	// Fault afresh.
	faultText string
}

// Execute performs one run on a fresh platform and returns its result.
// Panics from workload code or tripped watchdogs propagate with their
// original values; use ExecuteSafe to receive them as errors.
// Memoizable cells go through the process-wide cell table (memo.go): an
// identical cell that already ran is served from it, and concurrent
// executions of the same still-cold cell coalesce into one — exactly
// one caller simulates, the rest are served its Result.
func Execute(spec RunSpec) workload.Result {
	res, _ := memoized(spec, simulate)
	return res
}

// simulate runs spec on a fresh platform, letting panics propagate.
func simulate(spec RunSpec) (workload.Result, error) {
	pl := workload.NewPlatform(spec.Config, spec.Sched, spec.Seed)
	defer pl.Close()
	res := executeOn(spec, pl)
	// Close explicitly (idempotent) so the cell table only ever holds
	// runs whose teardown also succeeded; a teardown panic propagates
	// here, before the cell completes.
	pl.Close()
	return res, nil
}

// executeOn arms limits, cancellation and faults on the platform, then
// runs the workload. Every run carries a digest.Hasher teed into the
// scheduler's tracer, so Result.Digest is always populated: it folds the
// run identity, every scheduler event, and the final metrics.
func executeOn(spec RunSpec, pl *workload.Platform) workload.Result {
	// Hold one of the process-wide execution slots (workers.go) for the
	// duration of the simulation, so concurrent pools — sweeps, figure
	// fan-outs, server requests — share the -workers bound in aggregate
	// instead of multiplying it. Leaf-only: nothing below this point
	// acquires another slot, so holders always progress and release.
	acquireHostSlot()
	defer releaseHostSlot()
	if !spec.Limits.Zero() {
		pl.Env.SetLimits(spec.Limits)
	}
	if spec.Cancel != nil {
		pl.Env.SetCancel(spec.Cancel)
	}
	h := digest.New()
	h.Identity(spec.Workload.Name(), spec.Config.String(), spec.Sched.Policy.String(), spec.Seed)
	pl.Sched.SetTracer(trace.Tee(spec.Tracer, h))
	if !spec.Fault.Empty() {
		if err := spec.Fault.Validate(pl.Sched.Machine().NumCores()); err != nil {
			panic(err)
		}
		spec.Fault.Schedule(pl.Env, pl.Sched)
	}
	res := spec.Workload.Run(pl)
	// Capture the pre-metrics digest state before the final fold: the
	// disk result cache stores it beside the metrics so a read can
	// refold them and check the equation Digest == Events ⊕ metrics
	// without re-simulating (resultcache's verify-on-read).
	res.Events = h.Sum()
	h.Result(res.Metric, res.Value, res.HigherIsBetter, res.Extras)
	res.Digest = h.Sum()
	if spec.Observe != nil {
		spec.Observe(pl.Sched)
	}
	return res
}

// ExecuteSafe performs one run like Execute but converts any panic —
// a workload-model bug, a tripped watchdog (*sim.WatchdogError), a
// detected deadlock (*sim.DeadlockError) or an invalid fault plan —
// into an error, so one crashed or wedged run cannot take down a
// multi-run sweep. Teardown failures (procs that survive Close) are
// reported the same way. Error messages carry only the panic value,
// never stack or goroutine state, so repeated failing runs produce
// identical errors and sweeps stay deterministic.
func ExecuteSafe(spec RunSpec) (workload.Result, error) {
	return memoized(spec, simulateSafe)
}

// simulateSafe is simulate with panics and teardown failures recovered
// into errors.
func simulateSafe(spec RunSpec) (res workload.Result, err error) {
	pl := workload.NewPlatform(spec.Config, spec.Sched, spec.Seed)
	defer func() {
		if r := recover(); r != nil && err == nil {
			err = panicError(r)
		}
		if cerr := safeClose(pl); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			res = workload.Result{}
		}
	}()
	return executeOn(spec, pl), nil
}

// ErrCancelled marks a run stopped by its Cancel signal rather than by
// a failure. Test with errors.Is; report renders such cells CANCELLED
// instead of ERR, and journals never record them (a resumed sweep
// re-executes them deterministically from scratch).
var ErrCancelled = errors.New("core: run cancelled")

// panicError converts a recovered panic value into a stable error.
func panicError(r any) error {
	if ce, ok := r.(*sim.CancelledError); ok {
		return fmt.Errorf("%w (%v)", ErrCancelled, ce)
	}
	if e, ok := r.(error); ok {
		return fmt.Errorf("core: run failed: %w", e)
	}
	return fmt.Errorf("core: run panicked: %v", r)
}

// safeClose closes the platform, catching the engine's "procs failed to
// terminate" teardown panic.
func safeClose(pl *workload.Platform) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: teardown failed: %v", r)
		}
	}()
	pl.Close()
	return nil
}

// RunSeed derives the seed for a (base, config, run) cell. It mixes the
// indices through SplitMix64 so adjacent cells get uncorrelated streams.
func RunSeed(base uint64, configIdx, runIdx int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(1+configIdx) + 0xbf58476d1ce4e5b9*uint64(1+runIdx)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RetrySeed derives the seed for retry attempt `attempt` of a cell.
// Attempt 0 is RunSeed exactly; each later attempt shifts the base so
// the rerun sees a fresh, still-reproducible random stream.
func RetrySeed(base uint64, configIdx, runIdx, attempt int) uint64 {
	return RunSeed(base+0x6c62272e07bb0142*uint64(attempt), configIdx, runIdx)
}

// ShardRange assigns one shard worker a contiguous slice of a sweep's
// flattened cell grid (index = cfg*runs + run, row-major). It is the
// worker side of sharded sweeps: internal/shard partitions the grid,
// and an Experiment with Shard set executes and journals only the
// cells in [Lo, Hi).
type ShardRange struct {
	// Index and Of identify the shard within its plan (Index in [0, Of)).
	Index, Of int
	// Lo and Hi bound the flattened cell range [Lo, Hi).
	Lo, Hi int
}

// String renders the canonical "index/of:lo-hi" form — the form
// journal headers record and ParseShardRange accepts.
func (s ShardRange) String() string {
	return fmt.Sprintf("%d/%d:%d-%d", s.Index, s.Of, s.Lo, s.Hi)
}

// ParseShardRange parses the canonical "index/of:lo-hi" form.
func ParseShardRange(str string) (ShardRange, error) {
	var s ShardRange
	n, err := fmt.Sscanf(str, "%d/%d:%d-%d", &s.Index, &s.Of, &s.Lo, &s.Hi)
	if err != nil || n != 4 {
		return ShardRange{}, fmt.Errorf("core: bad shard range %q (want index/of:lo-hi)", str)
	}
	if err := s.validate(); err != nil {
		return ShardRange{}, err
	}
	return s, nil
}

// validate checks the range's internal consistency (grid bounds are
// the experiment's to check).
func (s ShardRange) validate() error {
	if s.Of < 1 || s.Index < 0 || s.Index >= s.Of || s.Lo < 0 || s.Hi < s.Lo {
		return fmt.Errorf("core: invalid shard range %s", s)
	}
	return nil
}

// Contains reports whether flattened cell index i is in the range.
func (s ShardRange) Contains(i int) bool { return i >= s.Lo && i < s.Hi }

// ErrNotInShard marks cells outside a shard worker's assigned range:
// they are neither executed nor journaled, and a worker's Outcome
// carries this sentinel in their place.
var ErrNotInShard = errors.New("core: cell outside this shard")

// Experiment sweeps one workload over a set of machine configurations,
// repeating each cell Runs times with independent seeds.
type Experiment struct {
	// Name labels the experiment (e.g. "fig2a: SPECjbb scalability").
	Name string
	// Workload is the benchmark description; it is shared across runs and
	// must be stateless (every model in this repository is).
	Workload workload.Workload
	// Configs are the machine configurations to sweep. Defaults to the
	// paper's nine standard configurations.
	Configs []cpu.Config
	// Runs is the repetition count per configuration (default 3).
	Runs int
	// Sched configures the scheduler; zero value means the naive policy
	// with default parameters.
	Sched sched.Options
	// BaseSeed anchors the seed derivation (default 1).
	BaseSeed uint64
	// Sequential disables parallel execution across runs (used by tests
	// that need strict run ordering; results are identical either way).
	Sequential bool
	// Workers bounds host parallelism across cells: 0 means the
	// process-wide default (SetDefaultWorkers, itself defaulting to
	// GOMAXPROCS), 1 means sequential. Like Sequential, it only affects
	// wall-clock time, never results.
	Workers int
	// Fault optionally injects the same fault plan into every run.
	Fault *fault.Plan
	// Limits optionally arms the simulator watchdogs on every run, so a
	// wedged run becomes a per-run error instead of hanging the sweep.
	Limits sim.Limits
	// Retries is how many times a failed run is retried with a freshly
	// derived seed (RetrySeed) before its error is recorded (default 0).
	Retries int
	// Cancel, when non-nil, cooperatively stops the sweep when closed:
	// in-flight runs abort at their next event boundary and unstarted
	// cells are skipped, all recorded as ErrCancelled. The partial
	// Outcome is still returned so a report can show CANCELLED cells.
	Cancel <-chan struct{}
	// Journal, when non-nil, receives an append-only record of the sweep:
	// a header identifying it plus one cell per completed run (success or
	// failure, but never cancellation), enabling Resume.
	Journal *journal.Writer
	// Shard, when non-nil, restricts execution and journaling to the
	// flattened cell range [Shard.Lo, Shard.Hi) — the worker side of
	// sharded sweeps (internal/shard). Cells outside the range are
	// recorded as ErrNotInShard in the Outcome and never journaled.
	Shard *ShardRange
}

// ConfigResult holds all runs of one configuration.
type ConfigResult struct {
	// Config is the machine configuration of this cell.
	Config cpu.Config
	// Results are the per-run outcomes, in run order; failed runs hold
	// the zero Result.
	Results []workload.Result
	// Values are the per-run primary metric values, in run order; failed
	// runs hold NaN so run columns stay aligned.
	Values []float64
	// Errs are the per-run errors, in run order (nil entries for
	// successes).
	Errs []error
	// Summary summarises the successful Values only.
	Summary stats.Summary
}

// Failed returns the number of failed runs in this cell, counting
// cancelled runs.
func (cr *ConfigResult) Failed() int {
	n := 0
	for _, err := range cr.Errs {
		if err != nil {
			n++
		}
	}
	return n
}

// Cancelled returns the number of cancelled runs in this cell.
func (cr *ConfigResult) Cancelled() int {
	n := 0
	for _, err := range cr.Errs {
		if errors.Is(err, ErrCancelled) {
			n++
		}
	}
	return n
}

// Outcome is a completed experiment.
type Outcome struct {
	// Name echoes the experiment name.
	Name string
	// Metric is the primary metric's name.
	Metric string
	// HigherIsBetter is the primary metric's direction.
	HigherIsBetter bool
	// PerConfig holds one entry per configuration, in sweep order.
	PerConfig []ConfigResult
	// JournalErr is the first journal append failure, or nil. A sweep
	// never aborts on a journal problem (the Writer is sticky and later
	// appends no-op) but the journal is then incomplete and must not be
	// trusted for resume — callers surface this to the user.
	JournalErr error
}

// normalized returns the experiment's effective configs, runs and base
// seed with defaults applied — the identity a journal records and a
// resume validates.
func (e Experiment) normalized() (configs []cpu.Config, runs int, base uint64) {
	configs = e.Configs
	if len(configs) == 0 {
		//asmp:allow purity StandardConfigs is the paper's fixed nine-configuration table; nothing writes it
		configs = cpu.StandardConfigs
	}
	runs = e.Runs
	if runs <= 0 {
		runs = 3
	}
	base = e.BaseSeed
	if base == 0 {
		base = 1
	}
	return configs, runs, base
}

// cancelled reports whether the experiment's cancel signal has fired.
func (e Experiment) cancelled() bool {
	if e.Cancel == nil {
		return false
	}
	select {
	case <-e.Cancel:
		return true
	default:
		return false
	}
}

// cellKey addresses one (config, run) cell of a sweep.
type cellKey struct{ cfg, run int }

// Run executes the experiment. Cells run in parallel on real CPUs; the
// simulation itself stays fully deterministic because every run has its
// own environment and derived seed. With Journal set, a header and one
// record per completed cell are appended as the sweep progresses.
func (e Experiment) Run() *Outcome {
	return e.run(nil, true)
}

// run executes every cell not already present in seeded (results carried
// over from a journal). writeHeader appends the identity header first —
// fresh journals only; a resumed journal already has one.
func (e Experiment) run(seeded map[cellKey]workload.Result, writeHeader bool) *Outcome {
	if e.Workload == nil {
		panic("core: experiment without workload")
	}
	configs, runs, base := e.normalized()
	var journalErr error
	if e.Journal != nil && writeHeader {
		if err := e.Journal.WriteHeader(e.JournalHeader()); err != nil {
			// A journal without its identity header can never be
			// validated on resume; stop journaling entirely and surface
			// the failure once via Outcome.JournalErr.
			journalErr = err
			e.Journal = nil
		}
	}

	cells := make([]cellKey, 0, len(configs)*runs)
	for c := range configs {
		for r := 0; r < runs; r++ {
			cells = append(cells, cellKey{c, r})
		}
	}
	results := make([]workload.Result, len(cells))
	errs := make([]error, len(cells))
	if e.Shard != nil {
		if err := e.Shard.validate(); err != nil || e.Shard.Hi > len(cells) {
			panic(fmt.Sprintf("core: shard range %s outside the %d-cell grid", e.Shard, len(cells)))
		}
		// Pre-mark every cell outside the range before any worker starts:
		// workers skip marked cells, so out-of-range cells are neither
		// executed nor journaled.
		for i := range cells {
			if !e.Shard.Contains(i) {
				errs[i] = ErrNotInShard
			}
		}
	}

	spec := e.cellSpec(configs, base)
	workers := e.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if e.Sequential {
		workers = 1
	}
	// Cross-cell parallelism is intentional and digest-safe: each cell
	// runs in its own environment with its own derived seed, so cells
	// are independent pure functions and only their *scheduling* onto
	// host CPUs varies between sweeps — never their results.
	var wg sync.WaitGroup //asmp:allow goroutine harness parallelism across independent cells
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { //asmp:allow goroutine harness parallelism across independent cells
			defer wg.Done()
			for i := range next {
				if errs[i] != nil {
					// Pre-marked ErrNotInShard: another shard's cell.
					continue
				}
				cl := cells[i]
				if res, ok := seeded[cl]; ok {
					// Carried over from the journal: neither re-executed
					// nor re-journaled.
					results[i] = res
					continue
				}
				if e.cancelled() {
					errs[i] = ErrCancelled
					continue
				}
				// ExecuteSafe isolates a panicking or wedged run to its
				// own cell: the worker survives and the remaining cells
				// still execute. Each retry derives a fresh seed; the
				// recorded error is the last attempt's.
				attempt := 0
				for ; ; attempt++ {
					results[i], errs[i] = ExecuteSafe(spec(cl, attempt))
					if errs[i] == nil || attempt >= e.Retries ||
						errors.Is(errs[i], ErrCancelled) {
						break
					}
				}
				if e.Journal != nil && !errors.Is(errs[i], ErrCancelled) {
					// Cancellation stops a run at a wall-clock-dependent
					// point, so a cancelled cell is not a result — it is
					// left out of the journal and re-executed on resume.
					if err := e.Journal.WriteCell(journalCell(cl, configs[cl.cfg], base, attempt, results[i], errs[i])); err != nil {
						// The writer is sticky: this first failure is
						// remembered, later appends no-op, and the sweep
						// finishes. Surfaced below as Outcome.JournalErr.
						continue
					}
				}
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	if journalErr == nil && e.Journal != nil {
		journalErr = e.Journal.Err()
	}
	return assemble(e.Name, configs, runs, results, errs, journalErr)
}

// cellSpec returns the function that builds the RunSpec of one attempt
// at a cell of the grid (configs, base) that normalized returned. The
// fault plan's rendering, which every cell's key holds, is made here
// once for the whole grid: a generated plan can run to thousands of
// events.
func (e Experiment) cellSpec(configs []cpu.Config, base uint64) func(cl cellKey, attempt int) RunSpec {
	faultText := e.Fault.String()
	return func(cl cellKey, attempt int) RunSpec {
		return RunSpec{
			Workload:  e.Workload,
			Config:    configs[cl.cfg],
			Sched:     e.Sched,
			Seed:      RetrySeed(base, cl.cfg, cl.run, attempt),
			Fault:     e.Fault,
			faultText: faultText,
			Limits:    e.Limits,
			Cancel:    e.Cancel,
		}
	}
}

// assemble folds flattened per-cell results and errors into an Outcome.
// It is shared by run (after execution) and Replay (from a journal
// alone), so both paths aggregate — and therefore render — identically.
func assemble(name string, configs []cpu.Config, runs int, results []workload.Result, errs []error, journalErr error) *Outcome {
	out := &Outcome{Name: name, JournalErr: journalErr}
	for c, cfg := range configs {
		cr := ConfigResult{Config: cfg}
		sample := &stats.Sample{}
		for r := 0; r < runs; r++ {
			res, err := results[c*runs+r], errs[c*runs+r]
			cr.Results = append(cr.Results, res)
			cr.Errs = append(cr.Errs, err)
			if err != nil {
				cr.Values = append(cr.Values, math.NaN())
				continue
			}
			cr.Values = append(cr.Values, res.Value)
			sample.Add(res.Value)
			if out.Metric == "" {
				out.Metric = res.Metric
				out.HigherIsBetter = res.HigherIsBetter
			}
		}
		cr.Summary = sample.Summarize()
		out.PerConfig = append(out.PerConfig, cr)
	}
	return out
}

// Errors returns every per-run error across the sweep, in (config, run)
// order, with nils elided. An empty slice means every run succeeded.
func (o *Outcome) Errors() []error {
	var out []error
	for _, cr := range o.PerConfig {
		for _, err := range cr.Errs {
			if err != nil {
				out = append(out, err)
			}
		}
	}
	return out
}

// Find returns the cell for a configuration, or nil if absent.
func (o *Outcome) Find(cfg cpu.Config) *ConfigResult {
	for i := range o.PerConfig {
		if o.PerConfig[i].Config == cfg {
			return &o.PerConfig[i]
		}
	}
	return nil
}

// MaxCoV returns the largest run-to-run coefficient of variation across
// the experiment's configurations, optionally restricted to asymmetric
// ones. This is the study's headline predictability score.
func (o *Outcome) MaxCoV(onlyAsymmetric bool) float64 {
	max := 0.0
	for _, cr := range o.PerConfig {
		if onlyAsymmetric && cr.Config.Symmetric() {
			continue
		}
		if cr.Summary.CoV > max {
			max = cr.Summary.CoV
		}
	}
	return max
}

// SymmetricMaxCoV returns the largest CoV among symmetric configurations
// (the noise floor against which asymmetric variance is judged).
func (o *Outcome) SymmetricMaxCoV() float64 {
	max := 0.0
	for _, cr := range o.PerConfig {
		if !cr.Config.Symmetric() {
			continue
		}
		if cr.Summary.CoV > max {
			max = cr.Summary.CoV
		}
	}
	return max
}

// ScalabilityFit regresses the mean metric against total compute power.
// For runtime-like metrics the regression uses 1/power, so a positive
// slope and high R² mean "scales with compute power" in both cases.
func (o *Outcome) ScalabilityFit() stats.LinearFit {
	if len(o.PerConfig) < 2 {
		panic("core: scalability fit needs at least two configurations")
	}
	var xs, ys []float64
	for _, cr := range o.PerConfig {
		if cr.Summary.N == 0 {
			continue // every run of this configuration failed
		}
		p := cr.Config.ComputePower()
		if !o.HigherIsBetter {
			p = 1 / p
		}
		xs = append(xs, p)
		ys = append(ys, cr.Summary.Mean)
	}
	if len(xs) < 2 {
		// Too few surviving configurations to fit; report a null fit
		// rather than crashing a partially failed sweep.
		return stats.LinearFit{}
	}
	return stats.FitLinear(xs, ys)
}

// Speedups returns per-configuration speedup samples relative to the
// mean of the baseline configuration (the paper normalises Figure 10 to
// 0f-4s/8). Each sample holds one speedup per run, so error bars carry
// over.
func (o *Outcome) Speedups(baseline cpu.Config) ([]stats.Summary, error) {
	base := o.Find(baseline)
	if base == nil {
		return nil, fmt.Errorf("core: baseline %v not in experiment", baseline)
	}
	baseMean := base.Summary.Mean
	if baseMean == 0 {
		return nil, fmt.Errorf("core: baseline %v has zero mean", baseline)
	}
	out := make([]stats.Summary, len(o.PerConfig))
	for i, cr := range o.PerConfig {
		s := &stats.Sample{}
		for _, v := range cr.Values {
			if math.IsNaN(v) {
				continue // failed run
			}
			s.Add(stats.Speedup(baseMean, v, o.HigherIsBetter))
		}
		out[i] = s.Summarize()
	}
	return out, nil
}

// ScalabilityRank returns the Spearman rank correlation between the
// configurations' compute power and their mean performance (metric for
// throughput, 1/metric for runtime). A value near 1 means "more compute
// power reliably means better performance" — the paper's operational
// notion of predictable scalability, which tolerates saturation and mild
// non-linearity but flags slowest-core-gated workloads whose asymmetric
// points fall out of order.
func (o *Outcome) ScalabilityRank() float64 {
	var xs, ys []float64
	for _, cr := range o.PerConfig {
		if cr.Summary.N == 0 {
			continue // every run of this configuration failed
		}
		v := cr.Summary.Mean
		if !o.HigherIsBetter {
			if v == 0 {
				continue
			}
			v = 1 / v
		}
		xs = append(xs, cr.Config.ComputePower())
		ys = append(ys, v)
	}
	return stats.Spearman(xs, ys)
}

// Classification is a row of the paper's Table 1.
type Classification struct {
	// Predictable reports whether asymmetric-configuration variance stays
	// within threshold of the symmetric noise floor.
	Predictable bool
	// Scalable reports whether the metric tracks compute power.
	Scalable bool
	// MaxAsymmetricCoV and MaxSymmetricCoV are the underlying scores.
	MaxAsymmetricCoV float64
	MaxSymmetricCoV  float64
	// ScalabilityRank is the power-vs-performance rank correlation
	// underlying Scalable.
	ScalabilityRank float64
	// ScalabilityR2 is the linear-fit quality, reported for reference.
	ScalabilityR2 float64
}

// DefaultPredictabilityThreshold is the CoV above which a workload is
// judged unpredictable. The paper's unstable workloads show CoVs an
// order of magnitude above this; its stable ones sit well below.
const DefaultPredictabilityThreshold = 0.05

// DefaultScalabilityRank is the minimum power-to-performance rank
// correlation for "scales predictably with compute power".
const DefaultScalabilityRank = 0.80

// Classify derives the Table-1 judgement for an experiment.
func Classify(o *Outcome) Classification {
	cl := Classification{
		MaxAsymmetricCoV: o.MaxCoV(true),
		MaxSymmetricCoV:  o.SymmetricMaxCoV(),
	}
	cl.Predictable = cl.MaxAsymmetricCoV <= DefaultPredictabilityThreshold
	cl.ScalabilityRank = o.ScalabilityRank()
	cl.ScalabilityR2 = o.ScalabilityFit().R2
	cl.Scalable = cl.ScalabilityRank >= DefaultScalabilityRank
	return cl
}
