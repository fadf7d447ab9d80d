// Package digest computes deterministic run digests — the integrity
// primitive behind the repository's reproducibility claim. A run of the
// study is a pure function of (workload, config, policy, seed); the
// digest turns that claim into something checkable by folding three
// layers into one 64-bit FNV-1a hash:
//
//   - the run identity (workload name, configuration, policy, seed),
//   - every scheduler event the run emitted, in order (the Hasher is a
//     trace.Tracer and attaches as a hashing sink), and
//   - the final workload metrics.
//
// Two runs with the same digest executed the same schedule and produced
// the same numbers; a differing digest localises nondeterminism (see
// core.VerifyDeterminism). The digest is computed for every run and
// recorded in workload.Result.Digest and in run journals, so resumed
// sweeps and committed artifacts can be audited long after the run.
package digest

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"asmp/internal/trace"
)

// Digest is a 64-bit run digest.
type Digest uint64

// String renders the digest as fixed-width hex.
func (d Digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// Parse reads the fixed-width hex form produced by String.
func Parse(s string) (Digest, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("digest: malformed digest %q", s)
	}
	return Digest(v), nil
}

// FNV-1a 64-bit parameters.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hasher is a streaming FNV-1a hasher with typed fold methods. It
// implements trace.Tracer, so it can be attached to a scheduler (via
// trace.Tee when a ring buffer is also attached) and fold the full event
// stream as the run executes. The zero value is NOT ready; create with
// New.
type Hasher struct {
	h uint64
}

// New returns a Hasher at the FNV-1a offset basis.
func New() *Hasher { return &Hasher{h: offset64} }

// NewFrom returns a Hasher resumed at a previously captured digest
// state, so a fold can be continued without replaying everything that
// produced d. The result cache uses this to verify a stored Result:
// folding the stored metrics onto the entry's pre-metrics state
// (workload.Result.Events) must reproduce the entry's run digest
// exactly, or the entry is corrupt.
func NewFrom(d Digest) *Hasher { return &Hasher{h: uint64(d)} }

// Byte folds one byte.
func (h *Hasher) Byte(b byte) { h.h = (h.h ^ uint64(b)) * prime64 }

// fold64 folds the eight little-endian bytes of v into x and returns the
// evolved accumulator. Keeping the accumulator in a local (rather than
// writing h.h once per byte) lets the whole chain live in registers; the
// byte order and xor-multiply sequence are exactly Byte's, so the result
// is bit-identical to eight Byte calls.
func fold64(x, v uint64) uint64 {
	x = (x ^ (v & 0xff)) * prime64
	x = (x ^ (v >> 8 & 0xff)) * prime64
	x = (x ^ (v >> 16 & 0xff)) * prime64
	x = (x ^ (v >> 24 & 0xff)) * prime64
	x = (x ^ (v >> 32 & 0xff)) * prime64
	x = (x ^ (v >> 40 & 0xff)) * prime64
	x = (x ^ (v >> 48 & 0xff)) * prime64
	x = (x ^ (v >> 56 & 0xff)) * prime64
	return x
}

// foldString folds a length-prefixed string into x (String's layout).
func foldString(x uint64, s string) uint64 {
	x = fold64(x, uint64(int64(len(s))))
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * prime64
	}
	return x
}

// Uint64 folds a 64-bit value, little-endian.
func (h *Hasher) Uint64(v uint64) {
	h.h = fold64(h.h, v)
}

// Int folds a signed integer.
func (h *Hasher) Int(v int) { h.Uint64(uint64(int64(v))) }

// Bool folds a boolean.
func (h *Hasher) Bool(v bool) {
	if v {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
}

// Float64 folds a float's exact bit pattern (so digests distinguish
// values that print identically).
func (h *Hasher) Float64(v float64) { h.Uint64(math.Float64bits(v)) }

// String folds a length-prefixed string (the prefix keeps "ab"+"c"
// distinct from "a"+"bc" across consecutive folds).
func (h *Hasher) String(s string) {
	h.h = foldString(h.h, s)
}

// Sum returns the digest of everything folded so far. The hasher remains
// usable; further folds evolve the digest.
func (h *Hasher) Sum() Digest { return Digest(h.h) }

// Identity folds the run identity: the (workload, config, policy, seed)
// tuple every shape target in DESIGN assumes a run is a pure function
// of.
func (h *Hasher) Identity(workload, config, policy string, seed uint64) {
	h.String(workload)
	h.String(config)
	h.String(policy)
	h.Uint64(seed)
}

// Event folds one scheduler event. The whole fold runs on a local
// accumulator — events are the hot path (one call per scheduler event in
// every run), and a single load/store pair per event beats one per byte.
func (h *Hasher) Event(e trace.Event) {
	x := h.h
	x = fold64(x, math.Float64bits(float64(e.At)))
	x = fold64(x, uint64(int64(e.Kind)))
	x = fold64(x, uint64(int64(e.Core)))
	x = fold64(x, uint64(int64(e.From)))
	x = fold64(x, uint64(int64(e.Proc)))
	x = foldString(x, e.ProcName)
	h.h = x
}

// Record implements trace.Tracer by folding the event.
func (h *Hasher) Record(e trace.Event) { h.Event(e) }

// Result folds the final workload metrics: the primary metric and every
// secondary metric in sorted-key order.
func (h *Hasher) Result(metric string, value float64, higherIsBetter bool, extras map[string]float64) {
	h.String(metric)
	h.Float64(value)
	h.Bool(higherIsBetter)
	keys := make([]string, 0, len(extras))
	for k := range extras {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.Int(len(keys))
	for _, k := range keys {
		h.String(k)
		h.Float64(extras[k])
	}
}

// EventHash returns the standalone hash of a single event, used to build
// per-event hash chains for divergence localisation without retaining
// the events themselves.
func EventHash(e trace.Event) uint64 {
	h := New()
	h.Event(e)
	return uint64(h.Sum())
}

// Bytes folds a raw byte slice (length-prefixed). Exposed for the
// journal's line checksums.
func (h *Hasher) Bytes(b []byte) { h.h = foldBytes(h.h, b) }

// OfBytes returns the digest of one byte slice — New().Bytes(b).Sum(),
// folded without a Hasher so cache-key derivation (resultcache.KeyOf)
// writes through no pointer and passes the purity audit.
func OfBytes(b []byte) Digest { return Digest(foldBytes(offset64, b)) }

// foldBytes folds b, length-prefixed, into x and returns the evolved
// accumulator.
func foldBytes(x uint64, b []byte) uint64 {
	x = fold64(x, uint64(int64(len(b))))
	for _, c := range b {
		x = (x ^ uint64(c)) * prime64
	}
	return x
}
