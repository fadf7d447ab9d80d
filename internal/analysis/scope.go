package analysis

import "strings"

// deterministicPrefixes lists the import paths (and their subtrees)
// whose execution must be a pure function of (workload, config, policy,
// seed): the packages whose behaviour feeds run digests, traces and
// journals. Rules that only make sense inside the simulation core scope
// themselves to this set; rules that protect artifacts wherever they are
// produced (maporder, journalerr, nowalltime, norand) apply everywhere.
var deterministicPrefixes = []string{
	"asmp/internal/sim",
	"asmp/internal/sched",
	"asmp/internal/fault",
	"asmp/internal/core",
	"asmp/internal/workload",
	"asmp/internal/digest",
	"asmp/internal/trace",
	"asmp/internal/simtime",
	"asmp/internal/server",
	"asmp/internal/shard",
	"asmp/internal/resultcache",
}

// harnessPackages are deterministic-scope packages whose *artifacts*
// must be pure functions of their inputs but whose *machinery* is
// inherently concurrent, so nogoroutine exempts them wholesale instead
// of demanding a pragma on every line. Membership is the principled
// claim; each entry records why it holds.
var harnessPackages = map[string]string{
	// The event loop owns the simulator's execution primitives; every
	// interleaving it chooses is replayed from the seed.
	"asmp/internal/sim": "owns the simulator's execution primitives",
	// The daemon serves concurrent requests over the same deterministic
	// core; goroutines carry requests, never simulation state, and every
	// response body is a pure function of the request identity.
	"asmp/internal/server": "serving goroutines are harness, not simulation",
	// The shard supervisor monitors child processes; goroutines carry
	// worker lifecycles, never simulation state, and the journal it
	// appends holds records in grid order, a pure function of the cell
	// seeds.
	"asmp/internal/shard": "supervision goroutines are harness, not simulation",
	// The disk result cache is shared mutable state between harness
	// goroutines and processes; its counters and GC are concurrent
	// machinery, while every entry it serves is verified against the
	// deterministic run digest before any caller sees it.
	"asmp/internal/resultcache": "cache bookkeeping is harness; served entries are digest-verified",
}

// Deterministic reports whether importPath is inside the deterministic
// core.
func Deterministic(importPath string) bool {
	for _, p := range deterministicPrefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// Harness reports whether importPath is (inside) a harness package: in
// the deterministic scope for its artifacts, exempt from nogoroutine
// for its machinery.
func Harness(importPath string) bool {
	for p := range harnessPackages {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// noGoroutineScope is the nogoroutine scope: the deterministic core
// minus the harness packages (see harnessPackages for the rationale
// behind each exemption).
func noGoroutineScope(importPath string) bool {
	return Deterministic(importPath) && !Harness(importPath)
}

// notXRand is the norand scope: everywhere except internal/xrand, the
// one package allowed to implement randomness.
func notXRand(importPath string) bool {
	return importPath != "asmp/internal/xrand" &&
		!strings.HasPrefix(importPath, "asmp/internal/xrand/")
}
