// Package figures regenerates every table and figure of the paper's
// evaluation from the workload models. Each figure is registered under
// its paper id ("1a" .. "10", "table1", "micro") and produces one or
// more text tables carrying the same rows or series the paper plots.
//
// Absolute numbers are not expected to match the paper's testbed — the
// substrate here is a simulator — but the shapes are: who is stable, who
// scales, where the kernel fix works, and where only application changes
// do. EXPERIMENTS.md records the paper-vs-measured comparison for every
// entry in this registry.
package figures

import (
	"fmt"
	"sort"
	"sync"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/report"
	"asmp/internal/sched"
	"asmp/internal/workload"
)

// Options tunes figure regeneration.
type Options struct {
	// Quick trades repetitions and sweep resolution for speed; shapes
	// are preserved.
	Quick bool
	// Seed anchors all randomness (default 1).
	Seed uint64
	// Cancel, when non-nil, cooperatively stops regeneration when
	// closed: sweeps record their remaining cells as CANCELLED and
	// single-cell figures abort with *sim.CancelledError (surfaced as a
	// panic through Figure.Run; asmp-serve maps it to a typed timeout).
	// Cancellation never affects completed cells' values.
	Cancel <-chan struct{}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// runs picks the repetition count: the paper's number, or a reduced one
// in quick mode (never below 2, so error bars remain meaningful).
func (o Options) runs(paper int) int {
	if !o.Quick {
		return paper
	}
	r := paper / 2
	if r < 2 {
		r = 2
	}
	return r
}

// Figure is one regenerable element of the paper's evaluation.
type Figure struct {
	// ID is the paper's label: "1a", "2b", "10", "table1", "micro".
	ID string
	// Title is a short human name.
	Title string
	// Paper describes what the original figure shows.
	Paper string
	// Run regenerates the figure.
	Run func(Options) []*report.Table
}

var (
	mu       sync.Mutex
	registry = map[string]Figure{}
)

// register adds a figure at init time.
func register(f Figure) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[f.ID]; dup {
		panic(fmt.Sprintf("figures: duplicate id %q", f.ID))
	}
	registry[f.ID] = f
}

// Get returns the figure with the given id.
func Get(id string) (Figure, bool) {
	mu.Lock()
	defer mu.Unlock()
	f, ok := registry[id]
	return f, ok
}

// All returns every registered figure sorted by id (numerics first).
func All() []Figure {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Figure, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return figLess(out[i].ID, out[j].ID) })
	return out
}

// figLess orders "1a" < "1b" < ... < "10" < "micro" < "table1".
func figLess(a, b string) bool {
	na, sa := splitID(a)
	nb, sb := splitID(b)
	if (na >= 0) != (nb >= 0) {
		return na >= 0 // numbered figures first
	}
	if na != nb {
		return na < nb
	}
	return sa < sb
}

func splitID(s string) (int, string) {
	n := 0
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		n = n*10 + int(s[i]-'0')
		i++
	}
	if i == 0 {
		return -1, s
	}
	return n, s[i:]
}

// pmap runs f(0..n-1) on a pool bounded by core.DefaultWorkers and
// waits. A panic inside f — e.g. *sim.CancelledError from a cancelled
// single-cell run — is caught in the worker (so feeding never stalls),
// and the first one re-panics on the caller's goroutine after all
// iterations settle, preserving the uncancelled iterations' results.
func pmap(n int, f func(i int)) {
	workers := core.DefaultWorkers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
			}
		}()
		f(i)
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				call(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// standardExperiment sweeps a workload over the nine standard
// configurations under the given policy, honouring o.Cancel.
func standardExperiment(o Options, name string, w workload.Workload, runs int, policy sched.Policy, seed uint64) *core.Outcome {
	return core.Experiment{
		Name:     name,
		Workload: w,
		Runs:     runs,
		Sched:    sched.Defaults(policy),
		BaseSeed: seed,
		Cancel:   o.Cancel,
	}.Run()
}

// runCell executes one (workload, config, policy, seed) cell. If
// o.Cancel fires the cell panics *sim.CancelledError (core.Execute's
// contract); pmap carries that to the figure's caller.
func runCell(o Options, w workload.Workload, cfg cpu.Config, policy sched.Policy, seed uint64) workload.Result {
	return execute(o, w, cfg, sched.Defaults(policy), seed)
}

// execute is runCell with explicit scheduler options.
func execute(o Options, w workload.Workload, cfg cpu.Config, opt sched.Options, seed uint64) workload.Result {
	return core.Execute(core.RunSpec{
		Workload: w,
		Config:   cfg,
		Sched:    opt,
		Seed:     seed,
		Cancel:   o.Cancel,
	})
}

// baseline is the configuration every speedup in Figure 10 is normalised
// to.
var baseline = cpu.MustParseConfig("0f-4s/8")
