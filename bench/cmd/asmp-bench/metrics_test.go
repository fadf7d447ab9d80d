package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check("metric", d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// The metrics and workloads this program can emit are exactly the ones
// BENCHMARK.json declares.
func TestBenchmarkJSONDeclaresWhatTheDriverEmits(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %+v, the benchmark has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\ndeclared  %+v\nbenchmark %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\ndeclared  %+v\nbenchmark %+v", decl.PerLayer, perLayer)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", decl.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
}
