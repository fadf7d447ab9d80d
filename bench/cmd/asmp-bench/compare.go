package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of the comparison rule (see judge).
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
)

// sideStats summarises one side's runs of one metric.
type sideStats struct {
	N           int
	Med, Q1, Q3 float64
	values      []float64
}

func summarise(bySeed map[uint64]float64) sideStats {
	var s sideStats
	for _, v := range bySeed {
		s.values = append(s.values, v)
	}
	s.N = len(s.values)
	s.Med = median(s.values)
	s.Q1, s.Q3 = quartiles(s.values)
	return s
}

// spread is the interquartile range as a share of the median.
func (s sideStats) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Med) }

// verdict is the comparison of one metric on one workload.
type verdict struct {
	Parent, Change sideStats
	Pairs, Wins    int
	Label          string
}

// minPairs is the fewest seed-paired runs a gain may be claimed on.
const minPairs = 10

// judge applies the comparison rule to one metric's runs, keyed by seed:
//
//   - improved: over at least minPairs seed-paired runs, the change wins
//     at least 9 in 10 (ties count for neither) and the medians differ,
//     in the change's favour, by more than the parent's interquartile
//     range;
//   - unresolved: the same gain over fewer than minPairs pairs; or either
//     side's spread (IQR over median) is wider than the metric's bound,
//     unless every change run is better than every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound, as a share of the parent's median;
//   - unchanged: otherwise.
func judge(def metricDef, parent, change map[uint64]float64) verdict {
	v := verdict{Parent: summarise(parent), Change: summarise(change)}
	better := func(a, b float64) bool {
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for seed, p := range parent {
		c, ok := change[seed]
		if !ok {
			continue
		}
		v.Pairs++
		if better(c, p) {
			v.Wins++
		}
	}
	allBetter := v.Parent.N > 0 && v.Change.N > 0
	for _, c := range v.Change.values {
		for _, p := range v.Parent.values {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	diff := math.Abs(v.Change.Med - v.Parent.Med)
	gain := v.Pairs > 0 && v.Wins*10 >= v.Pairs*9 && better(v.Change.Med, v.Parent.Med) && diff > v.Parent.Q3-v.Parent.Q1
	switch {
	case gain && v.Pairs >= minPairs:
		v.Label = improved
	case gain:
		v.Label = unresolved
	case math.Max(v.Parent.spread(), v.Change.spread()) > def.Bound && !allBetter:
		v.Label = unresolved
	case better(v.Parent.Med, v.Change.Med) && diff > def.Bound*math.Abs(v.Parent.Med):
		v.Label = regressed
	default:
		v.Label = unchanged
	}
	return v
}

// runCompare implements -compare. Arguments are record files or
// directories of them; records are split into the parent and the change
// side by directory, in order of appearance, and paired by workload and
// seed. It exits 1 if any metric regressed and 2 if the records cannot
// be compared.
func runCompare(args []string, stdout, stderr io.Writer) int {
	sides, dirs, err := loadSides(args)
	if err == nil {
		err = comparable(sides)
	}
	if err != nil {
		fmt.Fprintln(stderr, "asmp-bench: -compare:", err)
		return 2
	}
	h := sides[0][0].Host
	fmt.Fprintf(stdout, "host: %s, nproc %d, %s, GOMAXPROCS %d\n", h.CPUModel, h.NumCPU, h.GoVersion, h.GOMAXPROCS)
	calib := [2][]float64{}
	for i, recs := range sides {
		for _, r := range recs {
			calib[i] = append(calib[i], r.Host.CalibMs)
		}
	}
	fmt.Fprintf(stdout, "host.calib_ms median: %s %.3f, %s %.3f (host drift between the sides)\n\n",
		dirs[0], median(calib[0]), dirs[1], median(calib[1]))
	fmt.Fprintf(stdout, "%-14s %-14s %-34s %-34s %-9s %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "pairs won", "verdict")
	regressions := 0
	for _, w := range workloads {
		runs := [2]map[uint64]record{byseed(sides[0], w.name), byseed(sides[1], w.name)}
		if len(runs[0]) == 0 || len(runs[1]) == 0 {
			continue
		}
		var failed, attempted [2]int
		for i := range runs {
			for _, r := range runs[i] {
				failed[i] += r.Result.Failed
				attempted[i] += r.Result.Attempted
			}
		}
		for _, def := range endToEnd {
			var vals [2]map[uint64]float64
			for i := range runs {
				vals[i] = map[uint64]float64{}
				for seed, r := range runs[i] {
					if mv, ok := r.Result.Metrics[def.Name]; ok {
						vals[i][seed] = mv.Value
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			v := judge(def, vals[0], vals[1])
			label := v.Label
			if label == improved && failed[1] > failed[0] {
				label = unchanged + " (more failed ops than the parent: no gain counts)"
			}
			if label == regressed {
				regressions++
			}
			fmt.Fprintf(stdout, "%-14s %-14s %-34s %-34s %-9s %s\n", w.name, def.Name,
				quart(v.Parent), quart(v.Change), fmt.Sprintf("%d/%d", v.Wins, v.Pairs), label)
		}
		fmt.Fprintf(stdout, "%-14s failed ops: parent %d/%d, change %d/%d\n", w.name, failed[0], attempted[0], failed[1], attempted[1])
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

func quart(s sideStats) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Med, s.Q1, s.Q3, s.N)
}

func byseed(recs []record, workload string) map[uint64]record {
	out := map[uint64]record{}
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			out[r.Seed] = r
		}
	}
	return out
}

// loadSides reads the records named by args (files, or directories whose
// *.json files are read) and splits them by directory into exactly two
// sides.
func loadSides(args []string) ([2][]record, [2]string, error) {
	var sides [2][]record
	var dirs [2]string
	var order []string
	byDir := map[string][]string{}
	for _, a := range args {
		files := []string{a}
		dir := filepath.Dir(a)
		if fi, err := os.Stat(a); err == nil && fi.IsDir() {
			matches, err := filepath.Glob(filepath.Join(a, "*.json"))
			if err != nil {
				return sides, dirs, err
			}
			files, dir = matches, filepath.Clean(a)
		}
		if _, seen := byDir[dir]; !seen {
			order = append(order, dir)
		}
		byDir[dir] = append(byDir[dir], files...)
	}
	if len(order) != 2 {
		return sides, dirs, fmt.Errorf("want records from exactly two directories (parent, then change), got %d", len(order))
	}
	for i, dir := range order {
		dirs[i] = dir
		files := byDir[dir]
		sort.Strings(files)
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return sides, dirs, err
			}
			var r record
			if err := json.Unmarshal(data, &r); err != nil {
				return sides, dirs, fmt.Errorf("%s: %w", f, err)
			}
			sides[i] = append(sides[i], r)
		}
		if len(sides[i]) == 0 {
			return sides, dirs, fmt.Errorf("no records in %s", dir)
		}
	}
	return sides, dirs, nil
}

// comparable refuses records that were not measured alike: on different
// hosts or toolchains, over different run lengths, or as -smoke runs.
func comparable(sides [2][]record) error {
	want := sides[0][0].Host.identity()
	seconds := sides[0][0].Seconds
	var hosts, lengths, smokes []string
	for _, recs := range sides {
		for _, r := range recs {
			at := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			if got := r.Host.identity(); got != want {
				hosts = append(hosts, fmt.Sprintf("%s: %+v", at, got))
			}
			if r.Seconds != seconds {
				lengths = append(lengths, fmt.Sprintf("%s: %d s", at, r.Seconds))
			}
			if r.Smoke {
				smokes = append(smokes, at)
			}
		}
	}
	var errs []error
	if len(hosts) > 0 {
		errs = append(errs, fmt.Errorf("records come from different hosts: want %+v; got %s", want, strings.Join(hosts, "; ")))
	}
	if len(lengths) > 0 {
		errs = append(errs, fmt.Errorf("records measured for different lengths: want %d s; got %s", seconds, strings.Join(lengths, "; ")))
	}
	if len(smokes) > 0 {
		errs = append(errs, fmt.Errorf("-smoke records measure the harness, not the code: %s", strings.Join(smokes, "; ")))
	}
	return errors.Join(errs...)
}
