// Command asmp-bench is the repository's benchmark. Run from the root of
// a checkout, it builds that checkout's CLIs, drives one workload end to
// end through them, checks every output, and prints one JSON line:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{"op_p50_ms":{"value":2301.5,"unit":"ms"},...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run also times each layer through its
// public functions, prints the per-layer metrics instead, and writes its
// spans as Chrome trace-event JSON under .bench_build/traces.
//
// Usage (bench/run.sh builds this command and passes its arguments on):
//
//	sh bench/run.sh -workload regen-cold -seed 1 -seconds 20 -trace 0
//	sh bench/run.sh -workload serve-mixed -seed 2 -trace 1
//	sh bench/run.sh -workload sweep-sharded -seed 3 -record parent/sweep-3.json
//	sh bench/run.sh -compare parent/*.json change/*.json
//	sh bench/run.sh -workload regen-warm -smoke
//
// The workloads, the metrics and how to compare two commits are
// described in bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == shimArg {
		os.Exit(runShim(os.Args[2:]))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// record is one run's result with what is needed to compare it.
type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Smoke    bool     `json:"smoke"`
	Trace    bool     `json:"trace"`
	Host     hostInfo `json:"host"`
	Result   result   `json:"result"`
	// Raw holds the end-to-end values as measured, before scaling to
	// the reference host speed.
	Raw map[string]float64 `json:"raw_end_to_end"`
}

// run parses args, runs the benchmark and returns the exit code: 0 for
// a correct run, 1 when an output check failed or the run could not
// complete, 2 for bad usage.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asmp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed    = fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = fs.Int("seconds", defaultSeconds, "how long the run measures")
		trace   = fs.Int("trace", 0, "1: time each layer, print the per-layer metrics and write a Chrome trace; 0: the end-to-end metrics, tracing off")
		recordP = fs.String("record", "", "also write the result and the host fingerprint to this JSON file, for -compare")
		smoke   = fs.Bool("smoke", false, "run a seconds-long miniature of the workload, to check the harness itself")
		compare = fs.Bool("compare", false, "compare two sets of records: -compare parent/*.json change/*.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	def, ok := workloadByName(*name)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "asmp-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case !ok:
		fmt.Fprintf(stderr, "asmp-bench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "asmp-bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "asmp-bench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	root, err := os.Getwd()
	if err == nil {
		err = checkRoot(root)
	}
	self, serr := os.Executable()
	if err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(stderr, "asmp-bench:", err)
		return 2
	}

	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(out, "work"), 0o755); err != nil {
		fmt.Fprintln(stderr, "asmp-bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Join(out, "work"), def.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "asmp-bench:", err)
		return 1
	}
	defer func() {
		// Best effort: a leftover scratch directory costs disk space, not
		// correctness, and the result is already out.
		_ = os.RemoveAll(work)
		settleDisk()
	}()
	b := &bench{
		ctx: ctx, root: root, work: work, tmp: filepath.Join(work, "tmp"), bin: filepath.Join(out, "bin"), self: self,
		seed: *seed, window: time.Duration(*seconds) * time.Second, p: fullParams, log: stderr,
	}
	if *smoke {
		b.p = smokeParams
	}
	if *trace == 1 {
		b.spans = newRecorder()
	}
	res, raw, err := execute(b, def, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "asmp-bench: %s: %v\n", def.name, err)
		return 1
	}
	if b.spans != nil {
		path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", def.name, *seed))
		if err := writeJSON(path, b.spans.chrome()); err != nil {
			fmt.Fprintln(stderr, "asmp-bench: writing the trace:", err)
			return 1
		}
		fmt.Fprintln(stderr, "asmp-bench: spans written to", path)
	}
	if *recordP != "" {
		rec := record{Workload: def.name, Seed: *seed, Seconds: *seconds, Smoke: *smoke, Trace: *trace == 1, Host: fingerprint(), Result: res, Raw: raw}
		if err := writeJSON(*recordP, rec); err != nil {
			fmt.Fprintln(stderr, "asmp-bench: writing the record:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "asmp-bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkRoot refuses to run anywhere but the root of an asmp checkout.
func checkRoot(root string) error {
	for _, p := range []string{"go.mod", "cmd/asmp-run", "cmd/asmp-sweep", "cmd/asmp-serve", "results/figures-full.txt"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not the root of an asmp checkout (no %s)", root, p)
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
