package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for asmp-bench as the
// measuring shim the workloads run their CLIs through.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == shimArg {
		os.Exit(runShim(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// testLog forwards the benchmark's progress lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestSmokeEveryWorkload runs each workload in miniature against this
// checkout's CLIs — one quick figure, a 9-cell sweep, two seconds of
// serving at 5 requests/s — and requires a correct result carrying
// every end-to-end metric.
func TestSmokeEveryWorkload(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRoot(root); err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			work := t.TempDir()
			b := &bench{
				ctx: context.Background(), root: root, work: work, tmp: filepath.Join(work, "tmp"), bin: bin, self: self,
				seed: 1, window: time.Second, p: smokeParams, log: testLog{t},
			}
			res, _, err := execute(b, def, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Fatalf("result %+v", res)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("metric %s = %+v (present %v)", d.Name, v, ok)
				}
			}
		})
	}
}
