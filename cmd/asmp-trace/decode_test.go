package main

import (
	"strings"
	"testing"
)

// TestDecodesLikeSweep: -policy and -timeout decode through core, as
// asmp-sweep's flags and POST /v1/sweep bodies do: an empty policy is
// the naive default, and a timeout that is not a positive duration is
// refused.
func TestDecodesLikeSweep(t *testing.T) {
	code, out, errOut := runCmd("-workload", "specjbb", "-config", "4f-0s", "-policy", "")
	if code != 0 || !strings.Contains(out, "under the naive scheduler") {
		t.Errorf(`-policy "": exit = %d, stderr: %s`, code, errOut)
	}
	for _, timeout := range []string{"NaNs", "0s", "-5s"} {
		code, _, errOut := runCmd("-workload", "tpch", "-timeout", timeout)
		if code != 2 || !strings.Contains(errOut, "bad -timeout") {
			t.Errorf("-timeout %s: exit = %d, stderr: %s", timeout, code, errOut)
		}
	}
}
