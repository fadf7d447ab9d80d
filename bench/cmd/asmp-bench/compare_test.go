package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// runs builds ten seed-keyed runs: base plus the seed-th offset.
func runs(base float64, offsets ...float64) map[uint64]float64 {
	out := map[uint64]float64{}
	for i, o := range offsets {
		out[uint64(i+1)] = base + o
	}
	return out
}

var tight = []float64{0, 0.5, -0.5, 1, -1, 0.2, -0.2, 0.8, -0.8, 0.1}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "core.memo_hits", Better: "higher", Bound: 0.1}
	wide := []float64{0, 30, -30, 25, -25, 20, -20, 15, -15, 5}
	oneLoss := append([]float64{10}, tight[1:]...)
	for _, c := range []struct {
		name           string
		def            metricDef
		parent, change map[uint64]float64
		want           string
	}{
		{"faster in every pair", lower, runs(100, tight...), runs(90, tight...), improved},
		{"faster in 9 of 10 pairs", lower, runs(100, tight...), runs(90, oneLoss...), improved},
		{"higher is better", higher, runs(100, tight...), runs(110, tight...), improved},
		{"gain inside the parent's spread", lower, runs(100, tight...), runs(99.5, tight...), unchanged},
		{"within the bound", lower, runs(100, tight...), runs(105, tight...), unchanged},
		{"worse beyond the bound", lower, runs(100, tight...), runs(115, tight...), regressed},
		{"spread wider than the bound", lower, runs(100, wide...), runs(100, wide...), unresolved},
		{"wide but better in every run", lower, runs(200, wide...), runs(100, tight...), improved},
		{"faster in every one of 9 pairs", lower, runs(100, tight[:9]...), runs(90, tight[:9]...), unresolved},
		{"faster in the only pair", lower, runs(100, 0), runs(90, 0), unresolved},
		{"worse beyond the bound in 3 pairs", lower, runs(100, tight[:3]...), runs(115, tight[:3]...), regressed},
	} {
		if got := judge(c.def, c.parent, c.change).Label; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesUnlikeRecords(t *testing.T) {
	dir := t.TempDir()
	host := hostInfo{CPUModel: "cpu A", NumCPU: 2, GoVersion: "go1.24.0", GOMAXPROCS: 2, CalibMs: 40}
	write := func(side string, rec record, p50 float64) {
		rec.Workload = "regen-warm"
		rec.Result = result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"op_p50_ms": {Value: p50, Unit: "ms"}}}
		if err := writeJSON(filepath.Join(dir, side, fmt.Sprintf("r%d.json", rec.Seed)), rec); err != nil {
			t.Fatal(err)
		}
	}
	compare := func() (int, string, string) {
		var out, errOut bytes.Buffer
		code := runCompare([]string{filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &out, &errOut)
		return code, out.String(), errOut.String()
	}
	for seed := uint64(1); seed <= minPairs; seed++ {
		write("parent", record{Seed: seed, Seconds: 20, Host: host}, 10+float64(seed)/100)
		h := host
		h.CalibMs = 41 // drift alone does not make records incomparable
		write("change", record{Seed: seed, Seconds: 20, Host: h}, 9+float64(seed)/100)
	}
	if code, out, errOut := compare(); code != 0 || !strings.Contains(out, "improved") {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}

	for _, c := range []struct {
		name string
		rec  record
		want string
	}{
		{"another CPU", record{Seconds: 20, Host: hostInfo{CPUModel: "cpu B", NumCPU: 2, GoVersion: "go1.24.0", GOMAXPROCS: 2}}, "different hosts"},
		{"another run length", record{Seconds: 10, Host: host}, "different lengths"},
		{"a smoke run", record{Seconds: 20, Smoke: true, Host: host}, "-smoke"},
	} {
		c.rec.Seed = minPairs
		write("change", c.rec, 9)
		if code, _, errOut := compare(); code != 2 || !strings.Contains(errOut, c.want) {
			t.Errorf("%s: exit %d\n%s", c.name, code, errOut)
		}
	}
}
