package fault

// FuzzParsePlan holds the fault-plan parser to its contract on
// arbitrary text: it reads -fault flags and POST /v1/run bodies. It
// never panics, and every plan it accepts renders to a string that
// parses back to the same string. The memo and disk-cache identity of
// a run is built from that rendering, so a plan whose String does not
// round-trip would give one experiment two identities. Run it with
// `make fuzz`.

import "testing"

func FuzzParsePlan(f *testing.F) {
	for _, text := range []string{
		// TestParseRoundTrip, TestParseUnits and TestEventStringForms.
		"throttle@1.5s:0:0.125,restore@3.5s:0,offline@1.5s:1,online@3.5s:1,stall@2s:50ms",
		"stall@250us:10ns",
		"stall@2min:1s",
		"offline@1s:0,online@2s:0",
		"",
		" throttle@1s:0:0.5 , restore@2s:0 ",
		// TestParseErrors.
		"nope@1s:0",
		"throttle@1s:0",
		"throttle@1s:0:0.5:x",
		"offline@1s",
		"offline@1s:zero",
		"throttle@1s:0:fast",
		"stall@1s:forever",
		"stall@1:1s",
		"offline:1s:0",
		"stall@-1s:1s",
		"throttle@1s:0:NaN",
		"throttle@1s:0:-Inf",
		// The duty-trace generators, valid and refused.
		"wave@1s:500ms:2:0.25:3",
		"walk@1s:250ms:0:42:10",
		"stairs@1s:500ms:0:0.25:3",
		"wave@1s:500ms:0:0.125:2,walk@2s:250ms:1:7:5,stairs@3s:1s:2:0.5:2",
		"wave@1s:500ms:0:NaN:3",
		"wave@1s:0s:0:0.25:3",
		"stairs@1s:500ms:0:1.5:3",
		"walk@1s:250ms:0:x:3",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			return
		}
		s := p.String()
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q is refused: %v", text, s, err)
		}
		if got := again.String(); got != s {
			t.Fatalf("Parse(%q) renders %q, which re-renders %q", text, s, got)
		}
	})
}
