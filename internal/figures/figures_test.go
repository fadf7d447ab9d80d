package figures

import (
	"strings"
	"testing"
)

func quickOpt() Options { return Options{Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b",
		"6a", "6b", "7a", "7b", "8a", "8b", "9a", "9b", "10", "ablation", "conj", "energy", "fault", "micro",
		"policies", "policies-dyn", "table1"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("figure %s missing", id)
		}
	}
	if len(All()) != len(want) {
		ids := []string{}
		for _, f := range All() {
			ids = append(ids, f.ID)
		}
		t.Fatalf("registry has %d figures, want %d: %v", len(All()), len(want), ids)
	}
}

func TestAllOrdered(t *testing.T) {
	figs := All()
	if figs[0].ID != "1a" {
		t.Fatalf("first figure = %s, want 1a", figs[0].ID)
	}
	// "10" must sort after "9b", and the named entries come last.
	var idx10, idx9b, idxMicro int
	for i, f := range figs {
		switch f.ID {
		case "10":
			idx10 = i
		case "9b":
			idx9b = i
		case "micro":
			idxMicro = i
		}
	}
	if idx10 < idx9b || idxMicro < idx10 {
		t.Fatalf("ordering wrong: %v", figs)
	}
}

func TestMetadata(t *testing.T) {
	for _, f := range All() {
		if f.Title == "" || f.Paper == "" || f.Run == nil {
			t.Errorf("figure %s incomplete", f.ID)
		}
	}
}

func TestRunsOption(t *testing.T) {
	if (Options{}).runs(6) != 6 {
		t.Fatal("full runs wrong")
	}
	if (Options{Quick: true}).runs(6) != 3 {
		t.Fatal("quick runs wrong")
	}
	if (Options{Quick: true}).runs(2) != 2 {
		t.Fatal("quick floor wrong")
	}
	if (Options{}).seed() != 1 || (Options{Seed: 9}).seed() != 9 {
		t.Fatal("seed defaulting wrong")
	}
}

func TestMicroFigureExact(t *testing.T) {
	f, _ := Get("micro")
	tables := f.Run(quickOpt())
	if len(tables) != 1 {
		t.Fatalf("micro produced %d tables", len(tables))
	}
	s := tables[0].String()
	// The compute-bound microbenchmark at 12.5% duty must slow by exactly 8x.
	if !strings.Contains(s, "8.00") {
		t.Fatalf("missing 8x slowdown row:\n%s", s)
	}
	if strings.Count(s, "1.00") < 8 {
		t.Fatalf("memory-bound column should be all 1.00:\n%s", s)
	}
}

// The remaining figures are exercised one panel each in quick mode; the
// scientific assertions live in the workload packages' tests, so here we
// only check that regeneration works end to end and mentions the right
// configurations.
func TestFiguresRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is seconds-long")
	}
	for _, id := range []string{"2a", "3a", "4b", "5b", "6b", "7b", "9a", "9b"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			f, _ := Get(id)
			tables := f.Run(quickOpt())
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			joined := ""
			for _, tb := range tables {
				joined += tb.String()
			}
			for _, needle := range []string{"4f-0s", "0f-4s/8"} {
				if !strings.Contains(joined, needle) {
					t.Errorf("figure %s output missing %s:\n%s", id, needle, joined)
				}
			}
		})
	}
}

func TestWarehouseSweepFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep regeneration is seconds-long")
	}
	for _, id := range []string{"1b", "2b"} {
		f, _ := Get(id)
		tables := f.Run(quickOpt())
		s := tables[0].String()
		if !strings.Contains(s, "warehouses") {
			t.Fatalf("figure %s missing warehouse axis:\n%s", id, s)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("suite regeneration is seconds-long")
	}
	f, _ := Get("8a")
	s := f.Run(quickOpt())[0].String()
	for _, b := range []string{"swim", "ammp", "galgel", "art"} {
		if !strings.Contains(s, b) {
			t.Fatalf("figure 8a missing %s:\n%s", b, s)
		}
	}
}

func TestTable1QuickAgreesWithPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("classification is seconds-long")
	}
	f, _ := Get("table1")
	s := f.Run(Options{Quick: true, Seed: 1})[0].String()
	// The qualitative judgements that must survive even in quick mode.
	for _, row := range []string{"jAppServer", "jbb", "Apache", "Zeus", "TPC-H", "H.264", "OMP", "PMAKE"} {
		if !strings.Contains(s, row) {
			t.Fatalf("table1 missing row %s:\n%s", row, s)
		}
	}
	lines := strings.Split(s, "\n")
	pred := map[string]string{}
	for _, ln := range lines {
		fs := strings.Fields(ln)
		if len(fs) < 4 {
			continue
		}
		// The predictability verdict is the first yes/NO field (the
		// class column may be two words).
		for _, f := range fs[1:] {
			if f == "yes" || f == "NO" {
				pred[fs[0]] = f
				break
			}
		}
	}
	for app, want := range map[string]string{
		"jAppServer": "yes", "jbb": "NO", "Apache": "NO", "Zeus": "NO",
		"TPC-H": "NO", "H.264": "yes", "PMAKE": "yes",
	} {
		if pred[app] != want {
			t.Errorf("table1 predictability for %s = %q, want %q\n%s", app, pred[app], want, s)
		}
	}
}
