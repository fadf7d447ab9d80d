package main

import "fmt"

// metricDef declares one metric the benchmark emits. BENCHMARK.json at
// the repository root declares the same set (a test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the CLIs or the daemon sees, measured
// with tracing off. Every workload emits every one of them; what an "op"
// is depends on the workload (a CLI invocation, a sharded sweep, or a
// served request — see README.md). Bound is the share of the parent's
// median by which a metric may worsen before a change counts as a
// regression.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "maxrss_mb", Unit: "MiB", Better: "lower", Bound: 0.1},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// cellWorkloads are the models whose single cells the traced run times
// and counts, on 2f-2s/8 under the naive policy.
var cellWorkloads = []string{"specjbb", "apache", "zeus", "tpch", "omp-swim", "h264"}

// traceFigures are the figures the traced run regenerates in process, in
// CLI order, at quick resolution: cheap enough for every traced run, and
// sharing cells (the TPC-H variants, and figure 10 with all of them) so
// the memo counters are not trivially zero.
var traceFigures = []string{"4a", "4b", "5a", "5b", "8a", "9a", "9b", "10"}

// perLayer are the metrics of the traced run: unit costs and counts of
// single layers, timed by calls into each layer from this package.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lower("host.calib_ms", "ms"),
		lower("simtime.push_pop_ns", "ns"),
		lower("sim.handoff_ns", "ns"),
		lower("sim.spawn_exit_ns", "ns"),
		lower("digest.fold_ns", "ns"),
		lower("xrand.exp_ns", "ns"),
	}
	for _, wl := range cellWorkloads {
		defs = append(defs,
			lower("cell."+wl+".host_ms", "ms"),
			lower("cell."+wl+".sched_events", "count"),
			lower("cell."+wl+".engine_events", "count"),
			lower("cell."+wl+".ns_per_event", "ns"))
	}
	for _, id := range traceFigures {
		defs = append(defs, lower("fig."+id+".s", "s"))
	}
	return append(defs,
		lower("core.cells_simulated", "count"),
		higher("core.memo_hits", "count"),
		higher("core.memo_hit_frac", "ratio"),
		lower("core.memo_hit_us", "us"),
		lower("resultcache.get_hit_us", "us"),
		lower("resultcache.get_miss_us", "us"),
		lower("resultcache.put_us", "us"),
		higher("resultcache.warm_hits", "count"),
		lower("journal.append_us", "us"),
		lower("report.render_ms", "ms"),
		lower("cli.startup_ms", "ms"),
		lower("server.repeat_us", "us"),
		lower("server.fresh_tpch_ms", "ms"),
		higher("server.coalesced", "count"),
		lower("sweep.inproc_s", "s"),
		lower("sweep.sharded_s", "s"),
		lower("shard.overhead_s", "s"),
		lower("trace.op_p50_ms", "ms"),
	)
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect checks that got holds exactly the metrics in defs and pairs
// each value with its unit.
func collect(defs []metricDef, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(got) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, %d declared", len(got), len(defs))
	}
	return out, nil
}
