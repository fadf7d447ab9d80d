package cpu

import "testing"

// FuzzParseConfig holds ParseConfig to its contract on any string: it
// never panics, and every configuration it accepts has 1..MaxCores
// cores, parses back from its String form unchanged, and materialises
// a Machine of that size. Seeded from the paper's nine configurations
// and the parse tests' inputs; a crasher lands in testdata/fuzz and
// then runs with every `go test`.
func FuzzParseConfig(f *testing.F) {
	for _, name := range ConfigNames() {
		f.Add(name)
	}
	for _, c := range parseCases {
		f.Add(c.in)
	}
	for _, in := range parseErrors {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseConfig(s)
		if err != nil {
			return
		}
		if n := c.Fast + c.Slow; c.Fast < 0 || c.Slow < 0 || n < 1 || n > MaxCores {
			t.Fatalf("ParseConfig(%q) accepted %#v, outside 1..%d cores", s, c, MaxCores)
		}
		back, err := ParseConfig(c.String())
		if err != nil || back != c {
			t.Fatalf("ParseConfig(%q) = %#v, but its String %q parses to %#v, %v", s, c, c.String(), back, err)
		}
		if m := c.Machine(); m.NumCores() != c.Fast+c.Slow {
			t.Fatalf("%#v materialised %d cores", c, m.NumCores())
		}
	})
}
