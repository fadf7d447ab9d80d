package jbb

import (
	"testing"

	"asmp/internal/cpu"
	"asmp/internal/sched"
	"asmp/internal/stats"
	"asmp/internal/workload"
	"asmp/internal/workload/gc"
)

// runOnce executes one SPECjbb run and returns throughput.
func runOnce(t *testing.T, cfgName string, policy sched.Policy, kind gc.Kind, warehouses int, seed uint64) float64 {
	t.Helper()
	cfg := cpu.MustParseConfig(cfgName)
	pl := workload.NewPlatform(cfg, sched.Defaults(policy), seed)
	defer pl.Close()
	b := New(Options{Warehouses: warehouses, GC: kind})
	return b.Run(pl).Value
}

func sample(t *testing.T, cfgName string, policy sched.Policy, kind gc.Kind, warehouses, runs int) *stats.Sample {
	t.Helper()
	s := &stats.Sample{}
	for i := 0; i < runs; i++ {
		s.Add(runOnce(t, cfgName, policy, kind, warehouses, uint64(1000+i)))
	}
	return s
}
