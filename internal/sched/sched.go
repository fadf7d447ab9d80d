// Package sched models the operating-system CPU scheduler of the study.
// It implements sim.Executor on top of a cpu.Machine: per-core FIFO run
// queues with timeslice rotation, sticky wakeup placement, idle work
// stealing and periodic load balancing.
//
// Six policies are provided. The first two match the paper:
//
//   - PolicyNaive mirrors a stock Linux 2.4/2.6 scheduler. It balances
//     queue *lengths* and is agnostic to core speed: a runnable thread
//     can land on a slow core while a faster core idles, and initial
//     placement is sticky. This is the mechanism the paper identifies as
//     the primary source of run-to-run performance instability on
//     asymmetric machines.
//
//   - PolicyAsymmetryAware is the paper's modified kernel (§3.1.1,
//     derived from Bender & Rabin's work): faster cores never idle while
//     slower cores have work, wakeups prefer the fastest idle core, and a
//     thread running on a slow core is explicitly migrated to a faster
//     core that would otherwise go idle.
//
// The remaining four come from the related scheduling literature:
// PolicyRankAware (the paper's point-4 conjecture), and the policy zoo
// in policies.go — PolicyCriticalityAware, PolicyTypeAware and
// PolicyBigLittle; see their constant docs for the one-line versions
// and policies.go for the mechanisms.
package sched

import (
	"fmt"
	"math"
	"sort"

	"asmp/internal/cpu"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/trace"
	"asmp/internal/xrand"
)

// Policy selects the scheduling algorithm.
type Policy int

const (
	// PolicyNaive is an asymmetry-agnostic queue-length balancer.
	PolicyNaive Policy = iota
	// PolicyAsymmetryAware is the paper's asymmetry-aware scheduler.
	PolicyAsymmetryAware
	// PolicyRankAware is the paper's point-4 conjecture made concrete:
	// a scheduler that knows only the *ordering* of core speeds (which
	// core is faster), never their magnitudes. It keeps the aware
	// policy's structure — fastest-idle wakeups, slowest-victim
	// stealing, forced slow-to-fast migration — but its no-idle-core
	// placement and balancing use plain runnable counts with a
	// faster-rank tie-break instead of speed-normalised pressure.
	PolicyRankAware
	// PolicyCriticalityAware steers critical-path tasks of fork-join
	// workloads to the fastest cores (arXiv:2009.00915): a task whose
	// current burst is at least the decayed machine-wide mean burst is
	// "critical" and placed aware-style (fastest idle core first), while
	// sub-critical tasks yield the fast cores and prefer slow idle ones.
	PolicyCriticalityAware
	// PolicyTypeAware is Thread Director-style P/E-core classification:
	// each task is continuously reclassified from its observed burst
	// composition; compute-bound tasks prefer fast cores, memory-stall-
	// bound tasks are parked on slow cores where the lost clock barely
	// matters.
	PolicyTypeAware
	// PolicyBigLittle is a conservative big.LITTLE-era conventional
	// scheduler (arXiv:1509.02058): CFS-like weighted fair placement and
	// balancing where each core's capacity weight is its duty cycle, with
	// sticky wake affinity and no forced migration.
	PolicyBigLittle
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyNaive:
		return "naive"
	case PolicyAsymmetryAware:
		return "asymmetry-aware"
	case PolicyRankAware:
		return "rank-aware"
	case PolicyCriticalityAware:
		return "criticality-aware"
	case PolicyTypeAware:
		return "type-aware"
	case PolicyBigLittle:
		return "big-little"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures a Scheduler. The zero value is usable; Defaults fill
// in the standard values used across the study.
type Options struct {
	// Policy is the scheduling algorithm.
	Policy Policy
	// Timeslice is the round-robin quantum for a core with more than one
	// runnable task.
	Timeslice simtime.Duration
	// BalanceInterval is the period of the load-balancing pass.
	BalanceInterval simtime.Duration
	// MigrationCost is the cycle penalty (cache refill) charged when a
	// task starts on a different core than it last ran on.
	MigrationCost float64
	// RandomWakeups, when true (the naive default), picks uniformly among
	// idle cores on wakeup; when false the lowest-numbered eligible core
	// is used. Exists so the ablation benches can isolate the
	// instability source.
	RandomWakeups bool
	// StealThreshold is the minimum number of waiting tasks a victim
	// core must have before an idle core pulls from it. The naive policy
	// uses 2 (kernels of the era only balanced visible imbalance, which
	// is why load stuck to slow cores); the aware policy uses 1.
	StealThreshold int
	// NoForcedMigration disables the aware policy's preemptive
	// slow-to-fast migration of running tasks, leaving only its wakeup
	// placement and stealing. Exists for the ablation bench that
	// isolates how much of the paper's kernel fix comes from explicit
	// migration.
	NoForcedMigration bool
}

// Defaults returns the standard options for the given policy.
func Defaults(p Policy) Options {
	st := 2
	if p != PolicyNaive {
		// Every asymmetry-conscious policy idle-pulls single waiting
		// tasks; only the naive kernel waits for a visible imbalance.
		st = 1
	}
	return Options{
		Policy:          p,
		Timeslice:       20 * simtime.Millisecond,
		BalanceInterval: 100 * simtime.Millisecond,
		MigrationCost:   50e3,
		RandomWakeups:   true,
		StealThreshold:  st,
	}
}

// Stats aggregates scheduler activity over a run.
type Stats struct {
	// Dispatches counts task-starts on a core.
	Dispatches int
	// Preemptions counts timeslice rotations.
	Preemptions int
	// Migrations counts task moves between cores (wakeup on a new core,
	// steal, balance or explicit slow-to-fast migration).
	Migrations int
	// Steals counts idle-pull migrations specifically.
	Steals int
	// ForcedMigrations counts the asymmetry-aware policy's preemptive
	// slow-to-fast moves of running tasks.
	ForcedMigrations int
	// Offlines and Onlines count core hot-unplug events (fault
	// injection).
	Offlines int
	Onlines  int
	// Stalls counts machine-wide stall events.
	Stalls int
	// DrainMigrations counts tasks migrated off a core by SetOnline.
	DrainMigrations int
	// BusySeconds is the per-core busy time.
	BusySeconds []float64
	// RetiredCycles is the per-core retired work.
	RetiredCycles []float64
	// FastIdleSlowBusy accumulates seconds during which some core idled
	// while a strictly slower core had waiting (not running) work — the
	// invariant the aware policy is meant to keep at zero.
	FastIdleSlowBusy float64
	// CriticalPlacements counts wakeups the criticality-aware policy
	// steered to the fastest online core because the task's burst was at
	// or above the decayed machine-wide mean.
	CriticalPlacements int
	// ParkedPlacements counts wakeups the type-aware policy parked on a
	// strictly-slower-than-max core because the task classified as
	// memory-stall-bound.
	ParkedPlacements int
	// Reclassifications counts type-aware compute<->memory class flips
	// after a task's first classification.
	Reclassifications int
}

// Scheduler is the OS scheduler model. Create one with New; it registers
// its balancing tick on the environment and serves as the sim Executor.
type Scheduler struct {
	env     *sim.Env
	machine cpu.Machine
	opt     Options
	rng     *xrand.Rand
	cores   []*coreState
	stats   Stats

	lastInvariantCheck simtime.Time
	invariantViolated  bool
	balanceEv          simtime.Ref
	tracer             trace.Tracer

	// Machine-wide stall state (fault injection): while stalled, no core
	// dispatches and running tasks are parked at the front of their run
	// queues.
	stalled      bool
	stalledUntil simtime.Time
	stallEv      simtime.Ref

	// byDuty lists the cores fastest-first. It is computed in New and
	// rebuilt by SetDuty whenever a throttle fault changes a core's
	// speed, so balance passes always drain idle cores in current-speed
	// order.
	byDuty []*coreState

	// Scratch buffers reused across balance ticks and placements so the
	// steady-state scheduler allocates nothing per decision. Safe because
	// the simulation is single-threaded: no two decisions overlap.
	slotScratch []balanceSlot
	pickScratch []int

	// taskSlab hands out per-proc scheduler state a slab at a time, so
	// spawning N procs costs N/32 allocations instead of N. Slots are
	// never recycled; the slab just batches the backing allocations.
	taskSlab []task

	// burstMean is the decayed machine-wide mean burst size (cycles),
	// the criticality threshold of PolicyCriticalityAware. Updated only
	// at Compute issue, so it is a pure function of the issue sequence.
	burstMean float64
}

// balanceSlot pairs a core with its sampled load average inside one
// naive balance pass.
type balanceSlot struct {
	c   *coreState
	avg float64
}

// coreState is the per-core scheduler state.
type coreState struct {
	core    cpu.Core
	running *task
	runq    []*task

	// offline marks a hot-unplugged core (fault injection). An offline
	// core never dispatches; its run queue holds only affinity-stranded
	// tasks waiting for the core to return.
	offline bool

	// loadAvg is the exponentially decayed runnable count (time constant
	// loadAvgTau), mirroring the decayed cpu_load a 2.6-era balancer
	// consulted. Briefly-runnable tasks barely register here, which is
	// why a lightly loaded server process is never balanced away from a
	// slow core.
	loadAvg float64

	// Event for the running task: either its completion or its slice end.
	ev         simtime.Ref
	runStart   simtime.Time // when the running task last started/was accounted
	sliceStart simtime.Time // when the current timeslice began
}

// task is the per-proc scheduling state, stored in Proc.SchedState.
type task struct {
	p         *sim.Proc
	remaining float64 // cycles left in the current burst
	remMem    float64 // memory-stall seconds left (duty-cycle independent)
	inflight  bool
	lastCore  int // core the task last ran on; -1 if never ran
	queuedOn  int // core whose runq holds the task; -1 if running or not queued

	// Classification state for the policy zoo (see policies.go). Updated
	// only at Compute issue — a deterministic point — and persistent
	// across bursts, so a task's history survives sleeps.
	burstSize  float64 // cycles of the current/latest burst (criticality)
	memShare   float64 // EWMA of the memory-stall share of issued bursts
	classified bool    // memShare has at least one observation
	memBound   bool    // current type-aware class: memory-stall-bound
}

// New builds a scheduler for machine inside env and installs it as the
// environment's executor.
func New(env *sim.Env, machine cpu.Machine, opt Options) *Scheduler {
	if machine.NumCores() == 0 {
		panic("sched: machine with no cores")
	}
	if machine.NumCores() > 64 {
		panic("sched: more than 64 cores not supported by CPUSet")
	}
	if opt.Timeslice <= 0 {
		opt.Timeslice = Defaults(opt.Policy).Timeslice
	}
	if opt.BalanceInterval <= 0 {
		opt.BalanceInterval = Defaults(opt.Policy).BalanceInterval
	}
	if opt.StealThreshold <= 0 {
		opt.StealThreshold = Defaults(opt.Policy).StealThreshold
	}
	s := &Scheduler{
		env:     env,
		machine: machine,
		opt:     opt,
		rng:     env.Rand().Split(),
	}
	s.cores = make([]*coreState, machine.NumCores())
	for i, c := range machine.Cores {
		s.cores[i] = &coreState{core: c}
	}
	s.stats.BusySeconds = make([]float64, machine.NumCores())
	s.stats.RetiredCycles = make([]float64, machine.NumCores())
	s.byDuty = make([]*coreState, len(s.cores))
	s.resortByDuty()
	env.SetExecutor(s)
	return s
}

// resortByDuty rebuilds the fastest-first core order. It always restarts
// from index order before the stable sort, so equal-duty cores tie-break
// by core ID regardless of what past duty changes did to the previous
// order — the same order a fresh sort over s.cores produces.
func (s *Scheduler) resortByDuty() {
	copy(s.byDuty, s.cores)
	sort.SliceStable(s.byDuty, func(i, j int) bool { return s.byDuty[i].core.Duty > s.byDuty[j].core.Duty })
}

// SetTracer attaches a tracer that will receive every scheduling event
// (dispatches, preemptions, migrations, steals, idles). Pass nil to
// detach; use trace.Tee to attach several sinks (e.g. a ring buffer for
// inspection plus a digest hasher).
func (s *Scheduler) SetTracer(t trace.Tracer) { s.tracer = t }

// emit records a scheduler event when tracing is on.
func (s *Scheduler) emit(kind trace.Kind, core, from int, t *task) {
	if s.tracer == nil {
		return
	}
	e := trace.Event{At: s.env.Now(), Kind: kind, Core: core, From: from}
	if t != nil {
		e.Proc = t.p.ID()
		e.ProcName = t.p.Name()
	}
	s.tracer.Record(e)
}

// Machine returns the machine being scheduled.
func (s *Scheduler) Machine() cpu.Machine { return s.machine }

// SetDuty changes a core's clock duty cycle at runtime — the thermal
// throttling mechanism the paper's platform used (§2). An in-flight
// burst on that core is accounted at the old rate up to now and
// continues at the new rate; queued work is unaffected. This is how a
// symmetric machine *becomes* asymmetric mid-run (a thermal event), the
// scenario big.LITTLE-era schedulers would later face continuously.
func (s *Scheduler) SetDuty(core int, duty float64) {
	if core < 0 || core >= len(s.cores) {
		panic(fmt.Sprintf("sched: SetDuty on unknown core %d", core))
	}
	if !finiteDuty(duty) {
		// A typed panic value: core.ExecuteSafe recovers error panics
		// into wrapped errors, so callers can errors.As for *DutyError.
		panic(&DutyError{Core: core, Duty: duty})
	}
	c := s.cores[core]
	// Fold the piecewise-constant interval at the old speed into the
	// stats and the task's remaining work before the rate changes.
	s.observeInvariant()
	if c.running != nil {
		s.cancelCoreEvent(c)
		s.accountRunning(c)
	}
	c.core.Duty = duty
	s.machine.Cores[core].Duty = duty
	s.resortByDuty()
	if c.running != nil {
		s.scheduleCoreEvent(c)
	}
	if s.opt.Policy.speedSensitive() && !s.stalled {
		// A speed change re-ranks the cores. Idle cores that were
		// correctly idle a moment ago may now sit above a newly slowed
		// core with work, so give every idle core a pull pass and re-arm
		// balancing. The naive policy is speed-blind by design and does
		// not react to the change.
		for _, c := range s.cores {
			s.onIdle(c)
		}
		s.armBalance()
	}
}

// SetOnline hot-plugs a core (fault injection). Taking a core offline
// preempts its running task and drains the run queue through the normal
// wakeup path, so every displaced thread migrates to an allowed online
// core. A thread whose affinity mask matches no online core is
// *stranded*: it parks on the lowest-numbered allowed core's queue and
// waits for that core (or any allowed core) to return — mirroring how a
// real hot-unplug leaves a strictly-affine thread unrunnable rather
// than violating its mask. Bringing a core online rescues stranded
// threads machine-wide and resumes dispatch. Offlining an offline core
// (or onlining an online one) is a no-op.
func (s *Scheduler) SetOnline(core int, online bool) {
	if core < 0 || core >= len(s.cores) {
		panic(fmt.Sprintf("sched: SetOnline on unknown core %d", core))
	}
	c := s.cores[core]
	if c.offline != online {
		return // no-op
	}
	s.observeInvariant()
	if !online {
		s.stats.Offlines++
		s.emit(trace.Offline, core, -1, nil)
		c.offline = true
		drain := c.runq
		c.runq = nil
		if t := c.running; t != nil {
			s.cancelCoreEvent(c)
			s.accountRunning(c)
			c.running = nil
			drain = append([]*task{t}, drain...)
		}
		for _, t := range drain {
			t.queuedOn = -1
			s.stats.DrainMigrations++
			s.place(t)
		}
		if len(drain) > 0 {
			s.armBalance()
		}
		return
	}
	s.stats.Onlines++
	s.emit(trace.Online, core, -1, nil)
	c.offline = false
	s.rescueStranded()
	s.dispatch(c)
	s.onIdle(c)
	s.armBalance()
}

// Online reports whether the core is currently online.
func (s *Scheduler) Online(core int) bool { return !s.cores[core].offline }

// rescueStranded re-places every task parked on a still-offline core.
// Needed whenever a core returns: a stranded task may now have an online
// allowed core, and no organic path would move it — the naive policy's
// steal threshold (2) never pulls a lone stranded task, and offline
// queues are excluded from balancing.
func (s *Scheduler) rescueStranded() {
	for _, c := range s.cores {
		if !c.offline || len(c.runq) == 0 {
			continue
		}
		q := c.runq
		c.runq = nil
		for _, t := range q {
			t.queuedOn = -1
			s.place(t) // strands right back if still no online allowed core
		}
	}
}

// Stall pauses the entire machine for d (fault injection, an SMI- or
// firmware-style transient). Every running task is parked at the head
// of its own run queue — no migration, no cost — and nothing dispatches
// until the stall ends. Timer events elsewhere in the simulation still
// fire; only CPU execution is suspended. Overlapping stalls extend to
// the latest end time.
func (s *Scheduler) Stall(d simtime.Duration) {
	if d <= 0 {
		return
	}
	until := s.env.Now() + simtime.Time(d)
	if s.stalled {
		if until > s.stalledUntil {
			s.env.CancelCall(s.stallEv)
			s.stalledUntil = until
			s.stallEv = s.env.AtCall(until, s, evStall, nil)
		}
		return
	}
	s.observeInvariant()
	s.stalled = true
	s.stalledUntil = until
	s.stats.Stalls++
	s.emit(trace.Stall, -1, -1, nil)
	for _, c := range s.cores {
		if c.running == nil {
			continue
		}
		s.cancelCoreEvent(c)
		s.accountRunning(c)
		t := c.running
		c.running = nil
		t.queuedOn = c.core.ID
		c.runq = append([]*task{t}, c.runq...)
	}
	s.env.CancelCall(s.balanceEv)
	s.balanceEv = simtime.Ref{}
	s.stallEv = s.env.AtCall(until, s, evStall, nil)
}

// Stalled reports whether the machine is currently stalled.
func (s *Scheduler) Stalled() bool { return s.stalled }

// endStall resumes execution on every core after a Stall elapses.
func (s *Scheduler) endStall() {
	s.observeInvariant()
	s.stalled = false
	s.stallEv = simtime.Ref{}
	for _, c := range s.cores {
		s.dispatch(c)
	}
	for _, c := range s.cores {
		s.onIdle(c)
	}
	s.armBalance()
}

// Duty returns a core's current clock duty cycle.
func (s *Scheduler) Duty(core int) float64 { return s.cores[core].core.Duty }

// RelativeSpeeds returns each core's speed relative to the fastest core,
// in core order. This is the hardware-to-software interface the paper's
// point 4 calls for: "exposing the relative performance of processors in
// a system to the operating system and software scheduler may be
// sufficient, and absolute information of each processor's performance
// may not be necessary." Asymmetry-aware applications (see the OpenMP
// model's weighted-static mode) partition their work with it.
func (s *Scheduler) RelativeSpeeds() []float64 {
	max := s.machine.MaxDuty()
	out := make([]float64, len(s.cores))
	for i, c := range s.cores {
		out[i] = c.core.Duty / max
	}
	return out
}

// Options returns the active options.
func (s *Scheduler) Options() Options { return s.opt }

// Stats returns a snapshot of the accumulated statistics.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.BusySeconds = append([]float64(nil), s.stats.BusySeconds...)
	st.RetiredCycles = append([]float64(nil), s.stats.RetiredCycles...)
	return st
}

// CoreOf returns the core the proc is running or queued on, or -1.
func (s *Scheduler) CoreOf(p *sim.Proc) int {
	t, ok := p.SchedState.(*task)
	if !ok || t == nil {
		return -1
	}
	if t.queuedOn >= 0 {
		return t.queuedOn
	}
	if t.inflight {
		return t.lastCore
	}
	return -1
}

// taskOf returns (creating if needed) the scheduling state for p.
func (s *Scheduler) taskOf(p *sim.Proc) *task {
	if t, ok := p.SchedState.(*task); ok && t != nil {
		return t
	}
	if len(s.taskSlab) == 0 {
		s.taskSlab = make([]task, 32)
	}
	t := &s.taskSlab[0]
	s.taskSlab = s.taskSlab[1:]
	*t = task{p: p, lastCore: -1, queuedOn: -1}
	p.SchedState = t
	return t
}

// Compute implements sim.Executor.
func (s *Scheduler) Compute(p *sim.Proc, cycles, memSeconds float64) {
	t := s.taskOf(p)
	if t.inflight {
		panic(fmt.Sprintf("sched: %v issued overlapping compute", p))
	}
	t.remaining = cycles
	t.remMem = memSeconds
	t.inflight = true
	if s.opt.Policy.classifies() {
		s.observeBurst(t, cycles, memSeconds)
	}
	s.observeInvariant()
	s.place(t)
	s.armBalance()
}

// Cancel implements sim.Executor.
func (s *Scheduler) Cancel(p *sim.Proc) {
	t, ok := p.SchedState.(*task)
	if !ok || t == nil || !t.inflight {
		return
	}
	s.observeInvariant()
	if t.queuedOn >= 0 {
		c := s.cores[t.queuedOn]
		c.runq = removeTask(c.runq, t)
		t.queuedOn = -1
	} else if t.lastCore >= 0 && s.cores[t.lastCore].running == t {
		c := s.cores[t.lastCore]
		s.accountRunning(c)
		c.running = nil
		s.cancelCoreEvent(c)
		s.dispatch(c)
		s.onIdle(c)
	}
	t.inflight = false
}

// ProcExit implements sim.Executor.
func (s *Scheduler) ProcExit(p *sim.Proc) {
	s.Cancel(p)
	p.SchedState = nil
}

// allowed reports whether t may run on core id.
func (t *task) allowed(id int) bool { return t.p.Affinity().Has(id) }

// place chooses a core for a newly runnable task and enqueues it there.
// When every allowed core is offline the task is stranded instead.
func (s *Scheduler) place(t *task) {
	target := s.chooseCore(t)
	if target < 0 {
		s.strand(t)
		return
	}
	s.emit(trace.Wake, target, t.lastCore, t)
	s.enqueue(s.cores[target], t)
}

// strand parks a task whose allowed cores are all offline on the
// lowest-numbered allowed core, where it waits for a core to return
// (see SetOnline for the policy rationale).
func (s *Scheduler) strand(t *task) {
	for i := range s.cores {
		if t.allowed(i) {
			s.emit(trace.Wake, i, t.lastCore, t)
			s.enqueue(s.cores[i], t)
			return
		}
	}
	panic(fmt.Sprintf("sched: %v has affinity matching no core", t.p))
}

// chooseCore implements wakeup placement for the active policy.
func (s *Scheduler) chooseCore(t *task) int {
	switch s.opt.Policy {
	case PolicyAsymmetryAware:
		return s.chooseCoreAware(t)
	case PolicyRankAware:
		return s.chooseCoreRank(t)
	case PolicyCriticalityAware:
		return s.chooseCoreCrit(t)
	case PolicyTypeAware:
		return s.chooseCoreType(t)
	case PolicyBigLittle:
		return s.chooseCoreBigLittle(t)
	default:
		return s.chooseCoreNaive(t)
	}
}

// chooseCoreNaive mimics stock-kernel placement: a waking task goes back
// to the core it last ran on — even if that core is busy — unless doing
// so would create a visible imbalance; only then does it fall to a random
// idle core or the shortest queue, still ignoring core speed. The strong
// stickiness is what makes placement persist for a whole run and differ
// between runs.
func (s *Scheduler) chooseCoreNaive(t *task) int {
	// First-ever placement: uniformly random among allowed cores,
	// regardless of speed or load. A freshly forked process starts
	// wherever fork and the first wakeup happened to leave it; for
	// CPU-bound tasks the balance tick repairs clumps quickly, but a
	// mostly-sleeping server process keeps this arbitrary home for the
	// whole run.
	if t.lastCore < 0 && s.opt.RandomWakeups {
		allowed := s.pickScratch[:0]
		for i := range s.cores {
			if t.allowed(i) && !s.cores[i].offline {
				allowed = append(allowed, i)
			}
		}
		s.pickScratch = allowed[:0]
		if len(allowed) > 0 {
			return allowed[s.rng.Intn(len(allowed))]
		}
	}
	// Waking tasks return to the core they last ran on, unconditionally —
	// the O(1)-era wakeup path only ever considered the previous CPU.
	// Idle cores pick work up later through stealing and the balance
	// tick, both of which need a *visible* queue imbalance; a briefly
	// runnable server process rarely shows one, so its placement
	// persists for the whole run. This is the paper's instability
	// mechanism in one line.
	if t.lastCore >= 0 && t.allowed(t.lastCore) && !s.cores[t.lastCore].offline {
		return t.lastCore
	}
	var idle []int
	for i, c := range s.cores {
		if t.allowed(i) && !c.offline && c.idle() {
			idle = append(idle, i)
		}
	}
	if len(idle) > 0 {
		if s.opt.RandomWakeups {
			return idle[s.rng.Intn(len(idle))]
		}
		return idle[0]
	}
	// No idle core: shortest runnable count, random tie-break.
	best, bestLoad := -1, math.MaxInt
	var ties []int
	for i, c := range s.cores {
		if !t.allowed(i) || c.offline {
			continue
		}
		load := c.runnable()
		if load < bestLoad {
			best, bestLoad = i, load
			ties = ties[:0]
			ties = append(ties, i)
		} else if load == bestLoad {
			ties = append(ties, i)
		}
	}
	if len(ties) > 1 && s.opt.RandomWakeups {
		return ties[s.rng.Intn(len(ties))]
	}
	return best
}

// chooseCoreAware places on the fastest idle core; with none idle it
// minimises queue pressure normalised by core speed.
func (s *Scheduler) chooseCoreAware(t *task) int {
	best := -1
	for i, c := range s.cores {
		if !t.allowed(i) || c.offline || !c.idle() {
			continue
		}
		if best < 0 || c.core.Duty > s.cores[best].core.Duty {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	bestScore := math.Inf(1)
	for i, c := range s.cores {
		if !t.allowed(i) || c.offline {
			continue
		}
		score := float64(c.runnable()+1) / c.core.Rate()
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// chooseCoreRank places like the aware policy but without speed
// magnitudes: fastest idle core by rank; with none idle, the smallest
// runnable count, ties broken toward the faster core.
func (s *Scheduler) chooseCoreRank(t *task) int {
	best := -1
	for i, c := range s.cores {
		if !t.allowed(i) || c.offline || !c.idle() {
			continue
		}
		if best < 0 || c.core.Duty > s.cores[best].core.Duty {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	bestLoad := math.MaxInt
	for i, c := range s.cores {
		if !t.allowed(i) || c.offline {
			continue
		}
		load := c.runnable()
		if load < bestLoad ||
			(load == bestLoad && best >= 0 && c.core.Duty > s.cores[best].core.Duty) {
			best, bestLoad = i, load
		}
	}
	return best
}

// idle reports whether the core has nothing running and nothing queued.
func (c *coreState) idle() bool { return c.running == nil && len(c.runq) == 0 }

// runnable returns the number of runnable tasks on the core, counting the
// running one.
func (c *coreState) runnable() int {
	n := len(c.runq)
	if c.running != nil {
		n++
	}
	return n
}

// enqueue appends t to the core's run queue and kicks dispatch. If the
// core is running a long burst with an effectively infinite slice (it was
// alone), the burst is re-sliced so the newcomer is not starved.
func (s *Scheduler) enqueue(c *coreState, t *task) {
	s.observeInvariant()
	t.queuedOn = coreID(s, c)
	c.runq = append(c.runq, t)
	if c.running == nil {
		s.dispatch(c)
		return
	}
	// Re-slice the running task so the queue rotates within a quantum.
	s.reschedule(c)
}

func coreID(s *Scheduler, c *coreState) int {
	return c.core.ID
}

// dispatch starts the head of the run queue if the core is free.
func (s *Scheduler) dispatch(c *coreState) {
	s.observeInvariant()
	if c.offline || s.stalled || c.running != nil || len(c.runq) == 0 {
		return
	}
	t := c.runq[0]
	// Shift in place instead of re-slicing: run queues are short, and
	// keeping the backing array's head pinned means enqueue appends
	// never re-allocate in steady state.
	n := copy(c.runq, c.runq[1:])
	c.runq[n] = nil
	c.runq = c.runq[:n]
	t.queuedOn = -1
	id := c.core.ID
	if t.lastCore != id {
		if t.lastCore >= 0 {
			s.stats.Migrations++
			t.remaining += s.opt.MigrationCost
			s.emit(trace.Migrate, id, t.lastCore, t)
		}
		t.lastCore = id
	}
	s.emit(trace.Dispatch, id, -1, t)
	c.running = t
	c.runStart = s.env.Now()
	c.sliceStart = s.env.Now()
	s.stats.Dispatches++
	s.scheduleCoreEvent(c)
}

// The scheduler's typed event kinds, dispatched through HandleEvent:
// evCore is the completion-or-slice event for a core's running task
// (*coreState payload); evBalance is the periodic load-balancing tick;
// evStall ends a machine-wide stall. All three ride the queue's
// allocation-free payload path instead of a fresh closure per arming.
// evCompleted is not a queued event but coreEvent's Env.AfterTurn
// continuation: it refills a core (*coreState) once the proc whose
// burst completed there has taken its turn.
const (
	evCore = iota
	evBalance
	evStall
	evCompleted
)

// HandleEvent implements simtime.Handler. Each case clears its pending
// Ref on entry (coreEvent clears c.ev, balanceTick clears balanceEv,
// endStall clears stallEv); the Refs are generation-checked, so even a
// handle that outlived its event would be inert rather than dangling.
func (s *Scheduler) HandleEvent(kind int, arg any) {
	switch kind {
	case evCore:
		s.coreEvent(arg.(*coreState))
	case evBalance:
		s.balanceTick()
	case evStall:
		s.endStall()
	case evCompleted:
		c := arg.(*coreState)
		s.dispatch(c)
		s.onIdle(c)
	default:
		panic(fmt.Sprintf("sched: unknown event kind %d", kind))
	}
}

// scheduleCoreEvent arms the completion-or-slice event for the running
// task.
func (s *Scheduler) scheduleCoreEvent(c *coreState) {
	t := c.running
	finish := simtime.Duration(t.remaining/c.core.Rate() + t.remMem)
	slice := c.sliceStart + s.opt.Timeslice - s.env.Now()
	d := finish
	if len(c.runq) > 0 && slice < d {
		d = slice
	}
	if d < 0 {
		d = 0
	}
	c.ev = s.env.AfterCall(d, s, evCore, c)
}

func (s *Scheduler) cancelCoreEvent(c *coreState) {
	s.env.CancelCall(c.ev)
	c.ev = simtime.Ref{}
}

// accountRunning charges the running task for work done since runStart
// and updates busy statistics. Compute cycles retire first (at the
// core's duty-scaled rate), then memory-stall time elapses at wall-clock
// rate. Safe to call when nothing runs.
func (s *Scheduler) accountRunning(c *coreState) {
	t := c.running
	if t == nil {
		return
	}
	dt := float64(s.env.Now() - c.runStart)
	if dt < 0 {
		dt = 0
	}
	id := c.core.ID
	s.stats.BusySeconds[id] += dt
	cycleTime := t.remaining / c.core.Rate()
	if dt < cycleTime {
		retired := dt * c.core.Rate()
		t.remaining -= retired
		s.stats.RetiredCycles[id] += retired
	} else {
		s.stats.RetiredCycles[id] += t.remaining
		t.remaining = 0
		memUsed := dt - cycleTime
		if memUsed > t.remMem {
			memUsed = t.remMem
		}
		t.remMem -= memUsed
	}
	c.runStart = s.env.Now()
}

// coreEvent fires when the running task completes its burst or exhausts
// its timeslice.
func (s *Scheduler) coreEvent(c *coreState) {
	// Attribute the elapsed interval to the pre-event state before any
	// of it is torn down (load averages and the idle-invariant integral
	// both depend on exact piecewise-constant attribution).
	s.observeInvariant()
	c.ev = simtime.Ref{}
	s.accountRunning(c)
	t := c.running
	if t == nil {
		s.dispatch(c)
		return
	}
	if t.remaining <= 0.5 && t.remMem <= 1e-12 { // sub-cycle residue is float noise
		c.running = nil
		t.inflight = false
		s.emit(trace.Complete, c.core.ID, -1, t)
		s.observeInvariant()
		// FinishCompute is a tail call: the proc runs once this handler
		// returns and may issue its next burst, re-entering the
		// scheduler. The evCompleted continuation refills the core after
		// that turn; dispatch tolerates the re-entry.
		t.p.FinishCompute()
		s.env.AfterTurn(s, evCompleted, c)
		return
	}
	// Timeslice expiry: rotate if anyone is waiting.
	if len(c.runq) > 0 {
		s.stats.Preemptions++
		s.emit(trace.Preempt, c.core.ID, -1, t)
		c.running = nil
		s.enqueue(c, t)
		s.dispatch(c)
		return
	}
	c.sliceStart = s.env.Now()
	s.scheduleCoreEvent(c)
}

// reschedule re-arms the running task's event after queue changes,
// accounting progress so far.
func (s *Scheduler) reschedule(c *coreState) {
	if c.running == nil {
		return
	}
	s.cancelCoreEvent(c)
	s.accountRunning(c)
	s.scheduleCoreEvent(c)
}

// onIdle runs when a core may have gone idle: it tries to pull work.
func (s *Scheduler) onIdle(c *coreState) {
	if c.offline || s.stalled || !c.idle() {
		return
	}
	s.emit(trace.Idle, c.core.ID, -1, nil)
	if s.stealWaiting(c) {
		return
	}
	if s.opt.Policy.forcedMigration() && !s.opt.NoForcedMigration {
		s.migrateRunningFromSlower(c)
	}
}

// stealWaiting pulls one waiting task from the most loaded other core.
// Both policies do this — an idle CPU taking queued work is standard.
// The naive policy picks the victim by queue length alone; the aware
// policy prefers stealing from the slowest core.
func (s *Scheduler) stealWaiting(c *coreState) bool {
	id := c.core.ID
	var victim *coreState
	for _, v := range s.cores {
		if v == c || v.offline || len(v.runq) < s.opt.StealThreshold {
			continue
		}
		if !s.hasStealable(v, id) {
			continue
		}
		if victim == nil {
			victim = v
			continue
		}
		switch s.opt.Policy {
		case PolicyAsymmetryAware, PolicyRankAware, PolicyCriticalityAware, PolicyTypeAware:
			// Prefer relieving the slowest, most loaded core. Ordering
			// needs only ranks, so the rank policy shares this path; the
			// criticality and type policies inherit it because waiting
			// work on a slow core is exactly what they exist to unstick.
			if v.core.Duty < victim.core.Duty ||
				(v.core.Duty == victim.core.Duty && len(v.runq) > len(victim.runq)) {
				victim = v
			}
		case PolicyBigLittle:
			// CFS-style: relieve the highest capacity-weighted queue
			// pressure (queue length over duty), first-wins on ties.
			if float64(len(v.runq))/v.core.Duty > float64(len(victim.runq))/victim.core.Duty {
				victim = v
			}
		default:
			if len(v.runq) > len(victim.runq) {
				victim = v
			}
		}
	}
	if victim == nil {
		return false
	}
	t := s.takeStealable(victim, id)
	if t == nil {
		return false
	}
	s.stats.Steals++
	s.emit(trace.Steal, id, victim.core.ID, t)
	s.enqueue(c, t)
	return true
}

func (s *Scheduler) hasStealable(v *coreState, dst int) bool {
	for _, t := range v.runq {
		if t.allowed(dst) {
			return true
		}
	}
	return false
}

// takeStealable removes the oldest waiting task on v that may run on dst.
func (s *Scheduler) takeStealable(v *coreState, dst int) *task {
	for i, t := range v.runq {
		if t.allowed(dst) {
			v.runq = append(v.runq[:i], v.runq[i+1:]...)
			t.queuedOn = -1
			s.reschedule(v)
			return t
		}
	}
	return nil
}

// migrateRunningFromSlower preempts the running task of the slowest
// strictly-slower busy core and moves it to the idle core c. This is the
// paper's "a process is explicitly migrated from a slow core to an idle
// fast core".
func (s *Scheduler) migrateRunningFromSlower(c *coreState) {
	id := c.core.ID
	var victim *coreState
	for _, v := range s.cores {
		if v == c || v.running == nil {
			continue
		}
		if v.core.Duty >= c.core.Duty {
			continue
		}
		if !v.running.allowed(id) {
			continue
		}
		if !s.worthPulling(v.running) {
			continue
		}
		if victim == nil || v.core.Duty < victim.core.Duty {
			victim = v
		}
	}
	if victim == nil {
		return
	}
	s.cancelCoreEvent(victim)
	s.accountRunning(victim)
	t := victim.running
	victim.running = nil
	s.stats.ForcedMigrations++
	s.emit(trace.ForcedMigrate, id, victim.core.ID, t)
	s.enqueue(c, t)
	s.dispatch(victim)
	// The victim core may now be idle and slower than everyone else;
	// let it try to pull waiting work (never a running task from a
	// faster core, so this cannot ping-pong).
	s.onIdle(victim)
}

// armBalance schedules the next balancing pass if one is not already
// pending. The tick self-suspends when the machine drains so that
// simulations terminate; Compute re-arms it.
func (s *Scheduler) armBalance() {
	if !s.balanceEv.Scheduled() {
		s.balanceEv = s.env.AfterCall(s.opt.BalanceInterval, s, evBalance, nil)
	}
}

// anyWork reports whether any core has running or queued tasks.
func (s *Scheduler) anyWork() bool {
	for _, c := range s.cores {
		if c.running != nil || len(c.runq) > 0 {
			return true
		}
	}
	return false
}

// balanceTick is the periodic load-balancing pass.
func (s *Scheduler) balanceTick() {
	s.balanceEv = simtime.Ref{}
	if s.stalled {
		// Stall cancels the pending tick, but one already dispatched in
		// the same instant can still land here; skip and let endStall
		// re-arm.
		return
	}
	s.observeInvariant()
	switch s.opt.Policy {
	case PolicyAsymmetryAware, PolicyCriticalityAware, PolicyTypeAware:
		// The criticality and type policies differentiate at wakeup
		// placement and in what forced migration may move; their periodic
		// pass shares the aware policy's speed-normalised pressure
		// levelling.
		s.balanceAware()
	case PolicyRankAware:
		s.balanceRank()
	case PolicyBigLittle:
		s.balanceBigLittle()
	default:
		s.balanceNaive()
	}
	if s.anyWork() {
		s.armBalance()
	}
}

// balanceNaive equalises *decayed* load averages exactly like a
// speed-agnostic kernel: tasks move from the highest-average core to the
// lowest only when the averaged imbalance is a good task-and-a-half
// wide. CPU-bound pile-ups register quickly and get spread out;
// mostly-sleeping server processes never accumulate enough average load
// to be moved, so their (speed-blind) placement persists. Destination
// choice ignores core speed, which on an asymmetric machine is precisely
// what causes unstable placement.
func (s *Scheduler) balanceNaive() {
	slots := s.slotScratch[:0]
	for _, c := range s.cores {
		if c.offline {
			continue
		}
		slots = append(slots, balanceSlot{c, c.loadAvg})
	}
	s.slotScratch = slots[:0]
	if len(slots) < 2 {
		return
	}
	for iter := 0; iter < 64; iter++ {
		lo, hi := &slots[0], &slots[0]
		for i := range slots {
			if slots[i].avg < lo.avg {
				lo = &slots[i]
			}
			if slots[i].avg > hi.avg {
				hi = &slots[i]
			}
		}
		if hi.avg-lo.avg < 1.5 || len(hi.c.runq) == 0 {
			return
		}
		t := s.takeStealable(hi.c, lo.c.core.ID)
		if t == nil {
			return
		}
		s.stats.Steals++
		s.enqueue(lo.c, t)
		hi.avg--
		lo.avg++
	}
}

// balanceAware drains waiting work onto idle cores fastest-first and
// keeps queue pressure proportional to core speed.
func (s *Scheduler) balanceAware() {
	// Fastest idle cores pull first (s.byDuty tracks current speeds;
	// SetDuty re-sorts it on throttle faults).
	for _, c := range s.byDuty {
		if c.idle() {
			s.onIdle(c)
		}
	}
	// Pressure balancing: move waiting tasks from over- to under-pressure
	// cores, where pressure is runnable count divided by speed.
	for iter := 0; iter < 64; iter++ {
		var lo, hi *coreState
		var loP, hiP float64
		for _, c := range s.cores {
			if c.offline {
				continue
			}
			p := float64(c.runnable()) / c.core.Duty
			if lo == nil || p < loP {
				lo, loP = c, p
			}
			if hi == nil || p > hiP {
				hi, hiP = c, p
			}
		}
		if lo == nil || hi == lo || len(hi.runq) == 0 {
			return
		}
		// Only move if it strictly reduces the maximum pressure.
		after := float64(lo.runnable()+1) / lo.core.Duty
		if after >= hiP {
			return
		}
		t := s.takeStealable(hi, lo.core.ID)
		if t == nil {
			return
		}
		s.stats.Steals++
		s.enqueue(lo, t)
	}
}

// loadAvgTau is the decay time constant of the per-core load average.
const loadAvgTau = 50 * simtime.Millisecond

// updateLoadAvgs folds the elapsed interval (during which scheduler state
// was constant) into each core's decayed load average.
func (s *Scheduler) updateLoadAvgs(dt float64) {
	if dt <= 0 {
		return
	}
	decay := math.Exp(-dt / float64(loadAvgTau))
	for _, c := range s.cores {
		c.loadAvg = c.loadAvg*decay + float64(c.runnable())*(1-decay)
	}
}

// balanceRank levels runnable counts toward faster cores using only the
// speed ordering: it repeatedly moves a waiting task from the
// most-loaded core to the least-loaded one, preferring faster
// destinations on count ties, and additionally never leaves a strictly
// faster core with a shorter queue than a slower one.
func (s *Scheduler) balanceRank() {
	for iter := 0; iter < 64; iter++ {
		var lo, hi *coreState
		for _, c := range s.cores {
			if c.offline {
				continue
			}
			if lo == nil || c.runnable() < lo.runnable() ||
				(c.runnable() == lo.runnable() && c.core.Duty > lo.core.Duty) {
				lo = c
			}
			if hi == nil || c.runnable() > hi.runnable() ||
				(c.runnable() == hi.runnable() && c.core.Duty < hi.core.Duty) {
				hi = c
			}
		}
		if lo == nil || hi == nil {
			return
		}
		// Move on a count imbalance, or on equal counts when the
		// destination is strictly faster (shift load up the ranking).
		countGap := hi.runnable() - lo.runnable()
		rankGap := lo.core.Duty > hi.core.Duty
		if len(hi.runq) == 0 || (countGap < 2 && !(countGap >= 1 && rankGap)) {
			return
		}
		t := s.takeStealable(hi, lo.core.ID)
		if t == nil {
			return
		}
		s.stats.Steals++
		s.emit(trace.Steal, lo.core.ID, hi.core.ID, t)
		s.enqueue(lo, t)
	}
}

// observeInvariant integrates the time during which some idle core
// coexists with a strictly slower core that has *waiting* work — the
// condition the asymmetry-aware policy must prevent. The scheduler's
// state is piecewise constant between the points where this is called,
// so attributing the elapsed interval to the previously observed state is
// exact.
func (s *Scheduler) observeInvariant() {
	now := s.env.Now()
	dt := float64(now - s.lastInvariantCheck)
	s.lastInvariantCheck = now
	// NOTE: state has not changed since the last call, so folding the
	// *current* runnable counts over dt is exact for the load averages
	// too (they are computed from the same piecewise-constant signal).
	s.updateLoadAvgs(dt)
	if dt > 0 && s.invariantViolated {
		s.stats.FastIdleSlowBusy += dt
	}
	// Offline cores are invisible to the invariant (they neither idle
	// usefully nor hold schedulable work — only strands), and a stalled
	// machine is not "fast idle, slow busy": nothing can run at all.
	violated := false
	if !s.stalled {
	outer:
		for _, c := range s.cores {
			if c.offline || !c.idle() {
				continue
			}
			for _, v := range s.cores {
				if !v.offline && v.core.Duty < c.core.Duty && len(v.runq) > 0 {
					violated = true
					break outer
				}
			}
		}
	}
	s.invariantViolated = violated
}

// removeTask deletes t from q preserving order.
func removeTask(q []*task, t *task) []*task {
	for i, x := range q {
		if x == t {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// Utilization returns each core's busy fraction over the elapsed
// simulated time (0 when no time has passed).
func (s *Scheduler) Utilization() []float64 {
	out := make([]float64, len(s.cores))
	total := float64(s.env.Now())
	if total <= 0 {
		return out
	}
	for i := range s.cores {
		// Include the in-progress burst.
		busy := s.stats.BusySeconds[i]
		if c := s.cores[i]; c.running != nil {
			busy += float64(s.env.Now() - c.runStart)
		}
		out[i] = busy / total
	}
	return out
}
