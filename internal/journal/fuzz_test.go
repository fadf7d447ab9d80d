package journal

// FuzzParseLine holds the line decoder to its contract on arbitrary
// bytes: it reads journal files and the record streams shard workers
// send their supervisor over a pipe. It never panics, every record it
// accepts re-seals to a line that parses back to the same record, and
// a line longer than MaxLine is refused. Run it with `make fuzz`.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unsum clears an accepted record's checksum, so it can be sealed
// again or compared field by field.
func unsum(rec any) {
	switch r := rec.(type) {
	case *Header:
		r.Sum = ""
	case *Cell:
		r.Sum = ""
	case *Figure:
		r.Sum = ""
	}
}

// reseal seals an accepted record again, as Writer would append it.
func reseal(rec any) ([]byte, error) {
	unsum(rec)
	return Seal(rec)
}

func FuzzParseLine(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "results", "sample-run.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		f.Add(line)
	}
	// The shapes the reader's tests feed it: header, finite and
	// non-finite cells, a figure, a tampered value, an edit that decodes
	// to the same record, a torn half, a newer schema, broken JSON.
	h := sampleHeader()
	h.Kind, h.V = KindHeader, Version
	records := []any{
		&h,
		&Cell{Kind: KindCell, Config: "4f-0s/4", Seed: 100, Metric: "throughput", Value: 1234.5,
			Higher: true, Extras: Extras{"p95": 1.5}, Digest: "00000000deadbeef"},
		&Cell{Kind: KindCell, Value: Float(math.NaN()),
			Extras: Extras{"pinf": Float(math.Inf(1)), "ninf": Float(math.Inf(-1)), "fin": 1.5}},
		&Figure{Kind: KindFigure, ID: "4a", Txt: "table\n", Csv: "a,b\n"},
	}
	for _, rec := range records {
		line, err := reseal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		f.Add(line[:len(line)/2])
		f.Add([]byte(strings.Replace(string(line), "1234.5", "9999.5", 1)))
		f.Add([]byte(strings.Replace(string(line), "1234.5", "1234.50", 1)))
	}
	f.Add([]byte(`{"kind":"header","v":99,"sum":"whatever"}`))
	f.Add([]byte("{broken}"))
	f.Add([]byte(""))

	// An otherwise valid record one byte past MaxLine is refused.
	long, err := reseal(&Figure{Kind: KindFigure, ID: "big", Txt: strings.Repeat("x", MaxLine)})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ParseLine(long); err == nil {
		f.Fatalf("accepted a %d-byte line (MaxLine %d)", len(long), MaxLine)
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := ParseLine(line)
		if err != nil {
			return
		}
		if len(line) > MaxLine {
			t.Fatalf("accepted a %d-byte line", len(line))
		}
		sealed, err := reseal(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-seal: %v", err)
		}
		first, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseLine(sealed)
		if err != nil {
			t.Fatalf("re-sealed record refused: %v\nline: %s", err, sealed)
		}
		unsum(again)
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("record changed across a re-seal:\n%s\n%s", first, second)
		}
	})
}
