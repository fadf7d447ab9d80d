// Package faultio injects deterministic filesystem faults into the
// journal's Sink seam — the disk-side counterpart of internal/fault's
// simulated-machine faults, built on the same discipline: a Plan is a
// pure description, every random choice is seeded through
// internal/xrand, and a given plan always fails at the same byte, on
// the same call, with the same error text. That replayability is what
// makes crash-consistency failures debuggable: a property-test
// counterexample is a (plan, seed) pair, not a flake.
//
// Three fault shapes cover the crash signatures a journal must survive:
//
//   - torn writes: the cumulative write stream is cut at byte k — the
//     write that crosses k persists only its prefix and every later
//     operation fails, exactly as if the process died mid-append;
//   - failing control calls: the n-th Sync or Truncate returns an
//     error, modelling a device that drops its promise of durability;
//   - short writes: a seeded coin makes a write persist a strict prefix
//     and fail, modelling an interrupted write syscall.
package faultio

import (
	"errors"
	"fmt"

	"asmp/internal/journal"
	"asmp/internal/xrand"
)

// ErrInjected marks every failure this package injects. Test with
// errors.Is to distinguish an injected fault from a real I/O error.
var ErrInjected = errors.New("faultio: injected fault")

// Plan describes the faults one sink injects. The zero value injects
// nothing.
type Plan struct {
	// Tear enables tearing: the cumulative write stream is cut at byte
	// TearAt. The write that crosses the offset persists only the bytes
	// below it and fails; every operation after a tear fails too — the
	// "process" is dead. TearAt 0 with Tear set means nothing ever
	// persists.
	Tear   bool
	TearAt int64
	// FailSyncAt, when > 0, makes the n-th Sync call (1-based) fail and
	// the sink dead from then on.
	FailSyncAt int
	// FailTruncateAt, when > 0, makes the n-th Truncate call (1-based)
	// fail and the sink dead from then on.
	FailTruncateAt int
	// ShortWrites, in (0, 1], is the per-write probability that a write
	// lands short: a seeded coin decides, the write persists a strict
	// prefix of its bytes and fails, and the sink is dead from then on.
	ShortWrites float64
	// Seed seeds the short-write coin and cut points.
	Seed uint64
	// Kill upgrades a tear from a simulated crash to a real one: after
	// the prefix below TearAt is written, the process SIGKILLs itself —
	// no deferred cleanup, no error path, exactly the signature a dead
	// shard worker leaves behind. The prefix reaches the page cache
	// before the kill, so the supervisor observes the same torn file a
	// tear would have produced. Only meaningful with Tear set; used by
	// the shard chaos harness.
	Kill bool
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return !p.Tear && p.FailSyncAt <= 0 && p.FailTruncateAt <= 0 && p.ShortWrites <= 0
}

// Wrap returns the plan as a journal sink wrapper, for
// journal.CreateVia and journal.ResumeVia.
func (p Plan) Wrap() journal.WrapSink {
	return func(s journal.Sink) journal.Sink { return New(s, p) }
}

// Sink wraps a journal.Sink, injecting the faults its Plan describes.
// After the first injected failure the sink is dead: every later
// operation returns the same error, because a crashed process does not
// come back to issue more writes.
type Sink struct {
	under journal.Sink
	plan  Plan
	rng   *xrand.Rand
	// written counts bytes actually persisted to the underlying sink.
	written int64
	syncs   int
	truncs  int
	err     error
}

// New wraps under with the plan's faults.
func New(under journal.Sink, p Plan) *Sink {
	return &Sink{under: under, plan: p, rng: xrand.New(p.Seed)}
}

// Written returns the number of bytes persisted to the underlying sink.
func (s *Sink) Written() int64 { return s.written }

// Err returns the first injected (or underlying) failure, or nil.
func (s *Sink) Err() error { return s.err }

// die records the sink's terminal error and returns it.
func (s *Sink) die(err error) error {
	s.err = err
	return err
}

// Write implements journal.Sink.
func (s *Sink) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.plan.Tear && s.written+int64(len(p)) > s.plan.TearAt {
		keep := s.plan.TearAt - s.written
		if keep < 0 {
			keep = 0
		}
		n := 0
		if keep > 0 {
			var werr error
			n, werr = s.under.Write(p[:keep])
			if werr != nil {
				// The tear is the event under test; a real failure of
				// the partial write supersedes it.
				s.written += int64(n)
				return n, s.die(werr)
			}
		}
		s.written += int64(n)
		if s.plan.Kill {
			killSelf()
		}
		return n, s.die(fmt.Errorf("%w: write torn at byte %d", ErrInjected, s.plan.TearAt))
	}
	if s.plan.ShortWrites > 0 && len(p) > 0 && s.rng.Bool(s.plan.ShortWrites) {
		keep := s.rng.Intn(len(p)) // strict prefix: 0 .. len(p)-1 bytes
		n := 0
		if keep > 0 {
			var werr error
			n, werr = s.under.Write(p[:keep])
			if werr != nil {
				s.written += int64(n)
				return n, s.die(werr)
			}
		}
		s.written += int64(n)
		return n, s.die(fmt.Errorf("%w: short write at byte %d: %d of %d bytes", ErrInjected, s.written, n, len(p)))
	}
	n, err := s.under.Write(p)
	s.written += int64(n)
	if err != nil {
		return n, s.die(err)
	}
	return n, nil
}

// Sync implements journal.Sink.
func (s *Sink) Sync() error {
	if s.err != nil {
		return s.err
	}
	s.syncs++
	if s.plan.FailSyncAt > 0 && s.syncs == s.plan.FailSyncAt {
		return s.die(fmt.Errorf("%w: sync call %d failed", ErrInjected, s.syncs))
	}
	if err := s.under.Sync(); err != nil {
		return s.die(err)
	}
	return nil
}

// Truncate implements journal.Sink.
func (s *Sink) Truncate(size int64) error {
	if s.err != nil {
		return s.err
	}
	s.truncs++
	if s.plan.FailTruncateAt > 0 && s.truncs == s.plan.FailTruncateAt {
		return s.die(fmt.Errorf("%w: truncate call %d failed", ErrInjected, s.truncs))
	}
	if err := s.under.Truncate(size); err != nil {
		return s.die(err)
	}
	return nil
}

// Seek implements journal.Sink.
func (s *Sink) Seek(offset int64, whence int) (int64, error) {
	if s.err != nil {
		return 0, s.err
	}
	return s.under.Seek(offset, whence)
}

// Close implements journal.Sink. The underlying file is always closed
// (the descriptor must be released even after a tear); an injected
// failure, if any, is what the caller sees.
func (s *Sink) Close() error {
	cerr := s.under.Close()
	if s.err != nil {
		return s.err
	}
	return cerr
}
