package web

import (
	"testing"

	"asmp/internal/cpu"
	"asmp/internal/sched"
	"asmp/internal/stats"
	"asmp/internal/workload"
)

func runOnce(t *testing.T, b *Benchmark, cfgName string, policy sched.Policy, seed uint64) workload.Result {
	t.Helper()
	pl := workload.NewPlatform(cpu.MustParseConfig(cfgName), sched.Defaults(policy), seed)
	defer pl.Close()
	return b.Run(pl)
}

func sample(t *testing.T, b *Benchmark, cfgName string, policy sched.Policy, runs int) *stats.Sample {
	t.Helper()
	s := &stats.Sample{}
	for i := 0; i < runs; i++ {
		s.Add(runOnce(t, b, cfgName, policy, uint64(300+7*i)).Value)
	}
	return s
}
