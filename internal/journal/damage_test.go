package journal

// Tests for the DamagedError byte offset and the monotonic .damaged
// set-aside.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDamagedErrorCarriesByteOffset(t *testing.T) {
	path := tempPath(t)
	writeSample(t, path, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the second line: damage followed by valid records.
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	wantOff := int64(len(lines[0]))
	corrupted := lines[0] + "{broken}\n" + strings.Join(lines[2:], "")
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Read(path)
	var de *DamagedError
	if !errors.As(err, &de) {
		t.Fatalf("Read = %v, want *DamagedError", err)
	}
	if de.Offset != wantOff {
		t.Errorf("Offset = %d, want %d", de.Offset, wantOff)
	}
	if !strings.Contains(de.Error(), "byte offset") {
		t.Errorf("message lacks the byte offset: %s", de.Error())
	}
}

func TestSetAsideMonotonicSuffix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	mk := func() {
		t.Helper()
		if err := os.WriteFile(path, []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mk()
	got, err := SetAside(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != path+".damaged" {
		t.Fatalf("first set-aside = %s, want %s.damaged", got, path)
	}

	// A later damage at the same path must not clobber the first
	// set-aside: the suffix grows.
	for i := 1; i <= 2; i++ {
		mk()
		got, err = SetAside(path)
		if err != nil {
			t.Fatal(err)
		}
		want := path + ".damaged." + string(rune('0'+i))
		if got != want {
			t.Fatalf("set-aside %d = %s, want %s", i, got, want)
		}
	}

	// All three survive, and the original is gone.
	for _, p := range []string{path + ".damaged", path + ".damaged.1", path + ".damaged.2"} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("original still present (err %v)", err)
	}
}

func TestSetAsideMissingFileFails(t *testing.T) {
	if _, err := SetAside(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("set-aside of a missing file succeeded")
	}
}
