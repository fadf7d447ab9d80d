package cli

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageHidesHiddenFlags: -h lists every flag but the hidden ones,
// each with its registered default, even when the flags before -h
// already set it.
func TestUsageHidesHiddenFlags(t *testing.T) {
	var stderr bytes.Buffer
	fs := NewFlagSet("cmd", &stderr)
	fs.String("name", "dflt", "a shown flag")
	var hidden string
	Hidden(fs, "secret", func(v string) error { hidden = v; return nil })
	if Parse(fs, []string{"-secret", "s", "-name", "set", "-h"}) {
		t.Fatal("-h parsed as success")
	}
	out := stderr.String()
	if !strings.HasPrefix(out, "Usage of cmd:\n") || !strings.Contains(out, `a shown flag (default "dflt")`) {
		t.Errorf("usage lacks the shown flag or its default:\n%s", out)
	}
	if strings.Contains(out, "secret") {
		t.Errorf("hidden flag leaked into usage:\n%s", out)
	}
	if hidden != "s" {
		t.Errorf("hidden flag = %q, want it parsed", hidden)
	}
}
