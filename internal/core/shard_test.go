package core

// Tests for the shard-scoped worker side of sharded sweeps: range
// parsing, in-range-only execution and journaling, and Replay's
// reconstruction guarantees.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"asmp/internal/journal"
	"asmp/internal/workload"
)

func TestParseShardRange(t *testing.T) {
	r := ShardRange{Index: 1, Of: 4, Lo: 3, Hi: 6}
	got, err := ParseShardRange(r.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round-trip %v != %v", got, r)
	}
	for _, bad := range []string{"", "1/4", "x/4:0-3", "4/4:0-3", "-1/4:0-3", "0/0:0-3", "0/2:5-3"} {
		if _, err := ParseShardRange(bad); err == nil {
			t.Errorf("ParseShardRange(%q) accepted", bad)
		}
	}
}

func TestShardScopedRunJournalsOnlyInRange(t *testing.T) {
	configs := testConfigs(t)
	path := filepath.Join(t.TempDir(), "run.jsonl.shard0")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	shard := &ShardRange{Index: 0, Of: 2, Lo: 0, Hi: 3}
	exp := Experiment{
		Workload: powerProbe{asymNoise: 0.2},
		Configs:  configs,
		Runs:     2,
		BaseSeed: 7,
		Journal:  w,
		Shard:    shard,
	}
	out := exp.Run()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if out.JournalErr != nil {
		t.Fatalf("JournalErr = %v", out.JournalErr)
	}

	// In-range cells executed; out-of-range cells carry ErrNotInShard.
	runs := 2
	for c := range configs {
		for r := 0; r < runs; r++ {
			idx := c*runs + r
			err := out.PerConfig[c].Errs[r]
			if idx < shard.Hi {
				if err != nil {
					t.Errorf("in-range cell (%d,%d): %v", c, r, err)
				}
			} else if !errors.Is(err, ErrNotInShard) {
				t.Errorf("out-of-range cell (%d,%d): err = %v, want ErrNotInShard", c, r, err)
			}
		}
	}

	log, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Cells) != shard.Hi-shard.Lo {
		t.Fatalf("journal holds %d cells, want %d", len(log.Cells), shard.Hi-shard.Lo)
	}
	for i := range log.Cells {
		c := &log.Cells[i]
		if idx := c.Cfg*runs + c.Run; idx < shard.Lo || idx >= shard.Hi {
			t.Errorf("journal holds out-of-range cell (%d,%d)", c.Cfg, c.Run)
		}
	}

	// The matching shard resumes it fine — and re-executes nothing, so
	// the journal stays at the same cell count.
	log2, w2, err := journal.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	same := exp
	same.Journal = w2
	got, err := same.Resume(log2)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	// outcomesEqual trips on the NaN placeholders out-of-range cells
	// carry, so compare cell by cell: in-range values and digests match,
	// out-of-range cells stay ErrNotInShard.
	for c := range configs {
		for r := 0; r < runs; r++ {
			if c*runs+r >= shard.Hi {
				if !errors.Is(got.PerConfig[c].Errs[r], ErrNotInShard) {
					t.Errorf("resumed out-of-range cell (%d,%d): err = %v", c, r, got.PerConfig[c].Errs[r])
				}
				continue
			}
			if got.PerConfig[c].Values[r] != out.PerConfig[c].Values[r] {
				t.Errorf("resumed cell (%d,%d): value %v != %v", c, r, got.PerConfig[c].Values[r], out.PerConfig[c].Values[r])
			}
			if got.PerConfig[c].Results[r].Digest != out.PerConfig[c].Results[r].Digest {
				t.Errorf("resumed cell (%d,%d): digest mismatch", c, r)
			}
		}
	}
}

func TestShardedHalvesMergeToReplayIdenticalOutcome(t *testing.T) {
	configs := testConfigs(t)
	exp := Experiment{
		Name:     "merge test",
		Workload: powerProbe{asymNoise: 0.2},
		Configs:  configs,
		Runs:     2,
		BaseSeed: 7,
	}
	want := exp.Run()
	runs := 2
	n := len(configs) * runs

	// Run two shard halves, each into its own journal.
	dir := t.TempDir()
	halves := []ShardRange{
		{Index: 0, Of: 2, Lo: 0, Hi: n / 2},
		{Index: 1, Of: 2, Lo: n / 2, Hi: n},
	}
	var logs []*journal.Log
	for i, h := range halves {
		path := filepath.Join(dir, fmt.Sprintf("run.jsonl.shard%d", i))
		w, err := journal.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		sh := h
		se := exp
		se.Journal = w
		se.Shard = &sh
		if out := se.Run(); out.JournalErr != nil {
			t.Fatalf("shard %d: JournalErr = %v", i, out.JournalErr)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		log, err := journal.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, log)
	}

	// Stitch the halves into one canonical journal, cells in flattened
	// order, under the unsharded header.
	merged := filepath.Join(dir, "run.jsonl")
	w, err := journal.Create(merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(exp.JournalHeader()); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < n; idx++ {
		log := logs[0]
		if idx >= halves[0].Hi {
			log = logs[1]
		}
		for i := range log.Cells {
			c := log.Cells[i]
			if c.Cfg*runs+c.Run == idx {
				if err := w.WriteCell(c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := journal.Read(merged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exp.Replay(log)
	if err != nil {
		t.Fatal(err)
	}
	outcomesEqual(t, got, want)
}

func TestReplayRefusesIncompleteJournal(t *testing.T) {
	configs := testConfigs(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{
		Workload: powerProbe{},
		Configs:  configs,
		Runs:     2,
		BaseSeed: 7,
		Journal:  w,
		Shard:    &ShardRange{Index: 0, Of: 2, Lo: 0, Hi: 3},
	}
	exp.Run() // journals only half the grid
	w.Close()

	log, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	full := exp
	full.Shard = nil
	full.Journal = nil
	var refused *ResumeRefusedError
	if _, err := full.Replay(log); !errors.As(err, &refused) {
		t.Fatalf("Replay of incomplete journal: %v, want *ResumeRefusedError", err)
	}
}

func TestReplayCarriesRecordedFailures(t *testing.T) {
	configs := testConfigs(t)
	exp := Experiment{
		Workload: powerProbe{},
		Configs:  configs,
		Runs:     1,
		BaseSeed: 7,
	}
	ref := exp.Run()

	// Hand-build a journal: real results for all cells but one, which
	// records a failure (the shape a shard that exhausts its retry
	// budget produces).
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(exp.JournalHeader()); err != nil {
		t.Fatal(err)
	}
	for c := range configs {
		cl := cellKey{c, 0}
		var res workload.Result
		var cellErr error
		if c == 1 {
			cellErr = errors.New("shard 1/2: retry budget exhausted")
		} else {
			res = ref.PerConfig[c].Results[0]
		}
		if err := w.WriteCell(journalCell(cl, configs[c], 7, 0, res, cellErr)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exp.Replay(log)
	if err != nil {
		t.Fatal(err)
	}
	for c := range configs {
		err := got.PerConfig[c].Errs[0]
		if c == 1 {
			if err == nil || err.Error() != "shard 1/2: retry budget exhausted" {
				t.Fatalf("cell (1,0): err = %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cell (%d,0): %v", c, err)
		}
		if got.PerConfig[c].Values[0] != ref.PerConfig[c].Values[0] {
			t.Errorf("cell (%d,0): value %v != %v", c, got.PerConfig[c].Values[0], ref.PerConfig[c].Values[0])
		}
	}
}
