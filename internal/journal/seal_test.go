package journal

// The seal codec: Seal marshals a record once and splices its checksum
// in; Sealed checks a line over its stored bytes. These tests pin the
// line format to the two-pass seal (marshal with Sum empty, checksum
// those bytes, marshal again with Sum set), so journals and cache
// entries written by either verify under the other.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"asmp/internal/digest"
)

// twoPassSeal is the reference seal: marshal rec with Sum empty,
// checksum those bytes, and marshal again with Sum set. rec's Sum is
// left empty again afterwards.
func twoPassSeal(t *testing.T, rec any) []byte {
	t.Helper()
	sum := reflect.ValueOf(rec).Elem().FieldByName("Sum")
	sum.SetString("")
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum.SetString(digest.OfBytes(raw).String())
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum.SetString("")
	return line
}

// awkward holds the characters encoding/json escapes: HTML-sensitive
// <, > and &, and the JavaScript line separator U+2028.
const awkward = "a<b>&c\u2028d"

func TestSealMatchesTwoPassMarshal(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	h := sampleHeader()
	h.Kind, h.V = KindHeader, Version
	hAwkward := h
	hAwkward.Name, hAwkward.Fault = awkward, awkward
	records := map[string]any{
		"header":         &h,
		"header-awkward": &hAwkward,
		"header-bare":    &Header{Kind: KindHeader, V: Version},
		"cell-finite": &Cell{Kind: KindCell, Config: "4f-0s/4", Seed: 100, Metric: "throughput",
			Value: 1234.5, Higher: true, Extras: Extras{"p95": 1.5}, Digest: "00000000deadbeef"},
		"cell-non-finite": &Cell{Kind: KindCell, Value: Float(math.NaN()),
			Extras: Extras{"nan": Float(math.NaN()), "pinf": Float(math.Inf(1)), "ninf": Float(math.Inf(-1)), "negzero": negZero}},
		"cell-inf-value":   &Cell{Kind: KindCell, Value: Float(math.Inf(-1))},
		"cell-negzero":     &Cell{Kind: KindCell, Value: negZero},
		"cell-awkward":     &Cell{Kind: KindCell, Config: awkward, Metric: awkward, Err: awkward, Extras: Extras{awkward: 1}},
		"cell-empty-extra": &Cell{Kind: KindCell, Metric: "m", Extras: Extras{}},
		"cell-nil-extra":   &Cell{Kind: KindCell, Metric: "m", Extras: nil},
		"figure":           &Figure{Kind: KindFigure, ID: "4a", Txt: "table\n", Csv: "a,b\n"},
		"figure-awkward":   &Figure{Kind: KindFigure, ID: awkward, Txt: awkward + "\n\t\"q\"", Csv: awkward},
	}
	for name, rec := range records {
		want := twoPassSeal(t, rec)
		got, err := Seal(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Seal differs from the two-pass seal:\n got %s\nwant %s", name, got, want)
		}
		if !Sealed(got) {
			t.Errorf("%s: Sealed refuses Seal's own line %s", name, got)
		}
		if _, err := ParseLine(got); err != nil {
			t.Errorf("%s: ParseLine refuses Seal's own line: %v", name, err)
		}
	}
}

// TestSampleRunReseals: every line of the committed sample journal
// parses, and sealing the parsed record again reproduces the line byte
// for byte.
func TestSampleRunReseals(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "results", "sample-run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		lines++
		rec, err := ParseLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		again, err := reseal(rec)
		if err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if !bytes.Equal(again, line) {
			t.Errorf("line %d re-seals differently:\n got %s\nwant %s", lines, again, line)
		}
	}
	if lines == 0 {
		t.Fatal("sample journal is empty")
	}
}

// TestSumIsLastField guards the splice: Seal appends the checksum after
// a record's last field, which equals a second marshal only while Sum
// is that last field.
func TestSumIsLastField(t *testing.T) {
	for _, rec := range []any{Header{}, Cell{}, Figure{}} {
		typ := reflect.TypeOf(rec)
		last := typ.Field(typ.NumField() - 1)
		if last.Name != "Sum" || last.Type.Kind() != reflect.String || last.Tag.Get("json") != "sum,omitempty" {
			t.Errorf("%s: last field is %s %s `%s`, want Sum string `json:\"sum,omitempty\"`",
				typ.Name(), last.Name, last.Type, last.Tag)
		}
	}
}

// TestEquivalentEditRefused: an edit that decodes to the same record
// can only be caught by a checksum over the stored bytes, not over a
// re-marshal of the decoded record. ParseLine must refuse it.
func TestEquivalentEditRefused(t *testing.T) {
	line, err := Seal(&Cell{Kind: KindCell, Config: "4f-0s/4", Seed: 100, Metric: "throughput",
		Value: 1234.5, Higher: true, Extras: Extras{"p95": 1.5}, Digest: "00000000deadbeef"})
	if err != nil {
		t.Fatal(err)
	}
	var want Cell
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatal(err)
	}
	hex := string(line[len(line)-18 : len(line)-2])
	for name, edited := range map[string]string{
		"trailing zero":   strings.Replace(string(line), `"value":1234.5`, `"value":1234.50`, 1),
		"space after :":   strings.Replace(string(line), `"value":`, `"value": `, 1),
		"upper-case hex":  strings.Replace(string(line), hex, strings.ToUpper(hex), 1),
		"space before }":  string(line[:len(line)-1]) + " }",
		"reordered field": strings.Replace(string(line), `"cfg":0,"run":0,`, `"run":0,"cfg":0,`, 1),
	} {
		if edited == string(line) {
			t.Fatalf("%s: test setup: edit changed nothing in %s", name, line)
		}
		var got Cell
		if err := json.Unmarshal([]byte(edited), &got); err != nil {
			t.Fatalf("%s: test setup: edited line does not decode: %v", name, err)
		}
		got.Sum = want.Sum // the upper-case edit changes only the checksum's spelling
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: test setup: edited line decodes to %+v, want %+v", name, got, want)
		}
		if _, err := ParseLine([]byte(edited)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: ParseLine(%s) = %v, want a checksum mismatch", name, edited, err)
		}
	}
}

// TestFloatUnmarshalMatchesFloat64: on every JSON value a float64
// decodes (or refuses), Float agrees with encoding/json bit for bit;
// on top of that it decodes the three quoted non-finite literals.
func TestFloatUnmarshalMatchesFloat64(t *testing.T) {
	const start = 7.0 // shows whether a decode wrote at all
	for _, in := range []string{
		"0", "-0", "1234.5", "5e-324", "1e-400", "1.7976931348623157e308",
		"1e400", "-1e400", "null", "true", `"nan"`, `"1"`, `"Inf"`,
	} {
		want := start
		wantErr := json.Unmarshal([]byte(in), &want)
		got := Float(start)
		gotErr := got.UnmarshalJSON([]byte(in))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: Float error %v, float64 error %v", in, gotErr, wantErr)
			continue
		}
		if math.Float64bits(float64(got)) != math.Float64bits(want) {
			t.Errorf("%s: Float decodes %v (bits %#x), float64 %v (bits %#x)",
				in, float64(got), math.Float64bits(float64(got)), want, math.Float64bits(want))
		}
	}
	for in, want := range map[string]float64{`"NaN"`: math.NaN(), `"+Inf"`: math.Inf(1), `"-Inf"`: math.Inf(-1)} {
		var f Float
		if err := f.UnmarshalJSON([]byte(in)); err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if math.Float64bits(float64(f)) != math.Float64bits(want) {
			t.Errorf("%s: decodes %v, want %v", in, float64(f), want)
		}
		var v float64
		if json.Unmarshal([]byte(in), &v) == nil {
			t.Errorf("%s: float64 decodes it too; Float's quoted form would be redundant", in)
		}
	}
	if f := Float(start); f.UnmarshalJSON([]byte("-0")) != nil || !math.Signbit(float64(f)) {
		t.Errorf("-0 decodes to %v, want the sign bit kept", float64(f))
	}
}
