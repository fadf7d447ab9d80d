package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// sweep drives asmp-sweep -shards 2 over TPC-H, each op with a fresh
// journal, against an unsharded sequential reference made during
// set-up.
type sweep struct {
	refOut, refJournal []byte
}

// sweepArgs is the swept experiment, journaled to journal.
func (b *bench) sweepArgs(journal string) []string {
	return []string{"-workload", "tpch", "-runs", fmt.Sprint(b.p.sweepRuns),
		"-seed", fmt.Sprint(b.seed), "-journal", journal}
}

func (s *sweep) setUp(b *bench, parent int) error {
	dir, err := b.newDir("reference")
	if err != nil {
		return err
	}
	_, end := b.spans.begin("setup", "reference sweep", parent, 0, nil)
	defer end()
	j := filepath.Join(dir, "sweep.jsonl")
	c := b.run("asmp-sweep", append(b.sweepArgs(j), "-workers", "1", "-no-cache")...)
	if c.err != nil {
		return c.err
	}
	s.refOut = c.stdout
	s.refJournal, err = os.ReadFile(j)
	return err
}

func (s *sweep) measure(b *bench, o *outcome, until time.Time, parent int) {
	b.closedLoop(o, until, parent, func() error {
		c, journal, err := b.shardedSweep()
		if err != nil {
			return err
		}
		o.addChild(c)
		switch {
		case c.err != nil:
			return c.err
		case !bytes.Equal(c.stdout, s.refOut):
			return errors.New("sharded sweep report differs from the unsharded reference")
		case !bytes.Equal(journal, s.refJournal):
			return errors.New("merged journal differs from the unsharded reference journal")
		}
		return nil
	})
}

// shardedSweep runs the sweep over two shard processes with a fresh
// journal, and returns the run and its merged journal. Each shard runs
// one worker, so the two fill the two CPUs the benchmark was sized on
// without oversubscribing them: oversubscribed, the sweep slowed about
// twice as much as the calibration kernels under host contention. The
// sweep runs without the disk cache: publishing a file per cell made op
// times follow the disk's recent history (they doubled over ten
// consecutive runs) more than the code.
func (b *bench) shardedSweep() (child, []byte, error) {
	dir, err := b.newDir("sweep")
	if err != nil {
		return child{}, nil, err
	}
	j := filepath.Join(dir, "sweep.jsonl")
	c := b.run("asmp-sweep", append(b.sweepArgs(j), "-shards", "2", "-workers", "1", "-no-cache")...)
	journal, err := os.ReadFile(j)
	if err != nil && c.err == nil {
		c.err = err
	}
	return c, journal, nil
}

func (s *sweep) check(*bench, *outcome) {}

func (s *sweep) release(*bench, *outcome) {}
