package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// regen drives asmp-run: cold (no cache, every cell simulated) or warm
// (a cache filled during set-up, so every cell is a verified disk read).
// Set-up regenerates once, untimed by the op metrics: cold, that pages
// the binary and its data in; warm, it fills the cache. Its output is
// what every op must reproduce.
type regen struct {
	warm    bool
	cache   string
	want    []byte
	entries int
}

func (r *regen) args(b *bench) []string {
	a := append(append([]string{}, b.p.figArgs...), "-workers", "2", "-seed", fmt.Sprint(b.seed))
	if r.warm {
		return append(a, "-cache-dir", r.cache)
	}
	return append(a, "-no-cache")
}

func (r *regen) setUp(b *bench, parent int) error {
	if r.warm {
		dir, err := b.newDir("cache")
		if err != nil {
			return err
		}
		r.cache = dir
	}
	_, end := b.spans.begin("setup", "first regeneration", parent, 0, nil)
	c := b.run("asmp-run", r.args(b)...)
	end()
	if c.err != nil {
		return c.err
	}
	r.want = c.stdout
	if !r.warm {
		return nil
	}
	var err error
	r.entries, _, err = scanCache(r.cache)
	return err
}

func (r *regen) measure(b *bench, o *outcome, until time.Time, parent int) {
	args := r.args(b)
	b.closedLoop(o, until, parent, func() error {
		c := b.run("asmp-run", args...)
		o.addChild(c)
		if c.err != nil {
			return c.err
		}
		if !bytes.Equal(c.stdout, r.want) {
			return errors.New("asmp-run stdout differs from the set-up regeneration's")
		}
		return nil
	})
}

func (r *regen) check(b *bench, o *outcome) {
	fmt.Fprintf(b.log, "asmp-bench: asmp-run stdout sha256 %x (%d bytes)\n", sha256.Sum256(r.want), len(r.want))
	if b.p.golden && b.seed == 1 {
		// The committed seed-1 golden holds every figure's output; a
		// single figure's stdout must appear in it verbatim.
		golden, err := os.ReadFile(filepath.Join(b.root, "results", "figures-full.txt"))
		switch {
		case err != nil:
			o.checkFailed("reading the golden: %v", err)
		case len(r.want) == 0 || !bytes.Contains(golden, r.want):
			o.checkFailed("asmp-run stdout is not byte-identical to its section of results/figures-full.txt")
		}
	}
	if !r.warm {
		return
	}
	entries, damaged, err := scanCache(r.cache)
	switch {
	case err != nil:
		o.checkFailed("scanning the cache: %v", err)
	case damaged > 0:
		o.checkFailed("%d cache entries were refused and set aside as .damaged", damaged)
	case entries != r.entries:
		o.checkFailed("warm runs changed the cache: %d entries after set-up, %d after", r.entries, entries)
	}
}

func (r *regen) release(*bench, *outcome) {}

// scanCache counts a result-cache directory's entries and the files set
// aside as damaged.
func scanCache(dir string) (entries, damaged int, err error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range names {
		switch {
		case strings.Contains(e.Name(), ".damaged"):
			damaged++
		case strings.HasSuffix(e.Name(), ".cell"):
			entries++
		}
	}
	return entries, damaged, nil
}
