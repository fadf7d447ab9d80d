package resultcache_test

// FuzzDecodeEntry holds the entry decoder to its contract on arbitrary
// bytes under an entry's name: a lookup never panics, a refusal is a
// typed *DamagedError, and an entry it serves is one whose stored
// metrics refold to its stored run digest and which, published again,
// is served back bit-identically. Run it with `make fuzz`.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"asmp/internal/digest"
	"asmp/internal/resultcache"
	"asmp/internal/workload"
)

// refold recomputes res.Digest from its metrics and pre-metrics state,
// the equation a served entry must satisfy.
func refold(res workload.Result) digest.Digest {
	h := digest.NewFrom(res.Events)
	h.Result(res.Metric, res.Value, res.HigherIsBetter, res.Extras)
	return h.Sum()
}

func FuzzDecodeEntry(f *testing.F) {
	c, err := resultcache.Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	key := resultcache.KeyOf("fuzz-cell")
	path := c.EntryPath(key)

	negZero := math.Copysign(0, -1)
	for _, m := range []struct {
		value  float64
		extras map[string]float64
	}{
		{12345.678, map[string]float64{"hole": math.NaN(), "surge": math.Inf(1), "sink": math.Inf(-1), "flat": negZero}},
		{negZero, nil},
		{math.NaN(), map[string]float64{}},
	} {
		res := fakeResult("fuzz-cell")
		res.Value, res.Extras = m.value, m.extras
		res.Digest = refold(res)
		c.Put(key, res)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(bytes.Replace(data, []byte(fmt.Sprintf(`"v":%d,`, resultcache.Version)),
			[]byte(fmt.Sprintf(`"v":%d,`, resultcache.Version+1)), 1))
		flipped := bytes.Clone(data)
		flipped[len(flipped)/3] ^= 0x01
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok, err := c.GetChecked(key)
		if err != nil {
			var de *resultcache.DamagedError
			if !errors.As(err, &de) {
				t.Fatalf("refusal is untyped (%T: %v)", err, err)
			}
			if de.SetAside == "" {
				t.Fatalf("refusal did not set the entry aside: %v", de)
			}
			os.Remove(de.SetAside)
			return
		}
		if !ok {
			return // a plain miss: the entry names another key
		}
		if d := refold(res); d != res.Digest {
			t.Fatalf("served an entry whose metrics refold to %s, not its digest %s", d, res.Digest)
		}
		c.Put(key, res)
		again, ok := c.Get(key)
		if !ok || !sameResult(again, res) {
			t.Fatalf("re-published result not served back bit-identically: (ok=%v) %+v, want %+v", ok, again, res)
		}
	})
}
