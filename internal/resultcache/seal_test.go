package resultcache

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"asmp/internal/digest"
	"asmp/internal/journal"
)

// TestEntrySealMatchesTwoPassMarshal: journal.Seal writes an entry
// byte-identically to the two-pass seal (marshal with Sum empty,
// checksum those bytes, marshal again with Sum set) that published
// entries before it, so a warm cache directory keeps verifying.
func TestEntrySealMatchesTwoPassMarshal(t *testing.T) {
	negZero := journal.Float(math.Copysign(0, -1))
	base := entry{Kind: "cell", V: Version, Key: "k", Metric: "throughput (ops/s)", Value: 12345.678,
		Higher: true, Events: "0123456789abcdef", Digest: "fedcba9876543210"}
	nonFinite, awkward, empty, negValue := base, base, base, base
	nonFinite.Value = journal.Float(math.NaN())
	nonFinite.Extras = journal.Extras{"nan": journal.Float(math.NaN()), "pinf": journal.Float(math.Inf(1)),
		"ninf": journal.Float(math.Inf(-1)), "negzero": negZero}
	// The characters encoding/json escapes: <, >, & and U+2028.
	awkward.Key, awkward.Metric = "a<b>&c\u2028d", "e<f>&g\u2028h"
	awkward.Extras = journal.Extras{"<&>\u2028": 1}
	empty.Extras = journal.Extras{}
	negValue.Value = negZero
	for name, e := range map[string]entry{
		"finite": base, "non-finite": nonFinite, "awkward": awkward, "empty-extras": empty, "neg-zero": negValue,
	} {
		raw, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		e.Sum = digest.OfBytes(raw).String()
		want, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		e.Sum = ""
		got, err := journal.Seal(&e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: journal.Seal differs from the two-pass seal:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestEntrySumIsLastField guards the splice journal.Seal performs: it
// equals a second marshal only while Sum is the entry's last field.
func TestEntrySumIsLastField(t *testing.T) {
	typ := reflect.TypeOf(entry{})
	last := typ.Field(typ.NumField() - 1)
	if last.Name != "Sum" || last.Type.Kind() != reflect.String || last.Tag.Get("json") != "sum,omitempty" {
		t.Errorf("entry's last field is %s %s `%s`, want Sum string `json:\"sum,omitempty\"`",
			last.Name, last.Type, last.Tag)
	}
}
