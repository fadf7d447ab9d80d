package figures

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// goldenPath locates the committed full-resolution artifact.
func goldenPath(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate source file")
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "results", "figures-full.txt")
}

// TestGoldenArtifact regenerates a fast subset of the figures at full
// resolution and requires byte-identical tables to the committed
// artifact. Every run is a pure function of the seed, so any difference
// means the model changed — in which case results/figures-full.txt and
// EXPERIMENTS.md must be regenerated deliberately, not drift silently:
//
//	go run ./cmd/asmp-run -all > results/figures-full.txt
func TestGoldenArtifact(t *testing.T) {
	raw, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Skipf("golden artifact not available: %v", err)
	}
	golden := string(raw)
	for _, id := range []string{"micro", "4a", "4b", "5b", "9b", "8a"} {
		id := id
		t.Run(id, func(t *testing.T) {
			f, ok := Get(id)
			if !ok {
				t.Fatalf("figure %s missing", id)
			}
			for ti, tb := range f.Run(Options{Seed: 1}) {
				s := tb.String()
				if !strings.Contains(golden, s) {
					t.Errorf("figure %s table %d diverged from results/figures-full.txt;\n"+
						"if the model change is intentional, regenerate the artifact and EXPERIMENTS.md\n"+
						"regenerated:\n%s", id, ti, s)
				}
			}
		})
	}
}

// TestGoldenFaultArtifact regenerates the fault-injection extension at
// full resolution and requires byte-identical output to its committed
// seed-1 artifact. Fault injection rides entirely on the deterministic
// engine, so this also pins down that injected faults reproduce exactly:
//
//	go run ./cmd/asmp-run -fig fault -out results
func TestGoldenFaultArtifact(t *testing.T) {
	path := filepath.Join(filepath.Dir(goldenPath(t)), "fig-fault.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("golden artifact not available: %v", err)
	}
	golden := string(raw)
	f, ok := Get("fault")
	if !ok {
		t.Fatal("figure fault missing")
	}
	for ti, tb := range f.Run(Options{Seed: 1}) {
		s := tb.String()
		if !strings.Contains(golden, s) {
			t.Errorf("fault figure table %d diverged from results/fig-fault.txt;\n"+
				"if the model change is intentional, regenerate the artifact\n"+
				"regenerated:\n%s", ti, s)
		}
	}
}

// TestGoldenPoliciesArtifact regenerates the policy-zoo extension
// figures and the ablation figure at full resolution and requires
// byte-identical output to their committed seed-1 artifacts — the drift
// gate for the three related-work policies, the dynamic-asymmetry duty
// traces and the eight design-choice ablations:
//
//	go run ./cmd/asmp-run -fig policies -out results
//	go run ./cmd/asmp-run -fig policies-dyn -out results
//	go run ./cmd/asmp-run -fig ablation -out results
func TestGoldenPoliciesArtifact(t *testing.T) {
	for _, id := range []string{"policies", "policies-dyn", "ablation"} {
		id := id
		t.Run(id, func(t *testing.T) {
			path := filepath.Join(filepath.Dir(goldenPath(t)), "fig-"+id+".txt")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Skipf("golden artifact not available: %v", err)
			}
			golden := string(raw)
			f, ok := Get(id)
			if !ok {
				t.Fatalf("figure %s missing", id)
			}
			for ti, tb := range f.Run(Options{Seed: 1}) {
				s := tb.String()
				if !strings.Contains(golden, s) {
					t.Errorf("%s figure table %d diverged from results/fig-%s.txt;\n"+
						"if the model change is intentional, regenerate the artifact\n"+
						"regenerated:\n%s", id, ti, id, s)
				}
			}
		})
	}
}

// TestGoldenFullArtifact regenerates EVERY figure at full resolution
// with seed 1 and requires the committed results/figures-full.txt to
// match line for line (only the wall-clock "[figure ...]" status lines
// are ignored). The subset test above catches most drift cheaply; this
// one guarantees the committed artifact as a whole cannot go stale —
// including figures added later that the subset list does not know
// about. It is the slowest test in the repository, so it is skipped in
// -short mode and under the race detector:
//
//	make golden    # regenerate the artifact after an intentional change
func TestGoldenFullArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution regeneration skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-resolution regeneration skipped under the race detector")
	}
	raw, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Skipf("golden artifact not available: %v", err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "[figure ") {
			continue
		}
		want.WriteString(line)
	}

	var got strings.Builder
	for _, f := range All() {
		for _, tb := range f.Run(Options{Seed: 1}) {
			got.WriteString(tb.String())
			got.WriteByte('\n')
		}
		// The blank line that follows each figure's status line.
		got.WriteByte('\n')
	}
	if got.String() != want.String() {
		t.Errorf("full artifact diverged from results/figures-full.txt;\n" +
			"if the model change is intentional, run `make golden` and commit the result")
	}
}
