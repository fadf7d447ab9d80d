// Package fault implements deterministic fault injection for the
// simulator: seed-reproducible schedules of runtime events — per-core
// duty-cycle throttling and restoration (the paper's stop-clock thermal
// mechanism, §2), core hot-unplug and re-plug, and transient
// whole-machine stalls. A Plan is a pure description; Schedule registers
// its events on a simulation environment, where they fire at exact
// virtual times. Because the engine is deterministic, a given
// (workload, config, policy, seed, plan) tuple always produces
// byte-identical results, which is what lets the resilience experiments
// measure how each scheduling policy *recovers* from an asymmetry
// change rather than merely tolerating a static one.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/simtime"
)

// Kind classifies a fault event.
type Kind int

const (
	// Throttle drops a core's clock duty cycle (thermal stop-clock).
	Throttle Kind = iota
	// Restore returns a throttled core to the duty cycle it had when the
	// plan was scheduled — not to full speed, so a machine that was
	// asymmetric to begin with restores to its configured shape.
	Restore
	// Offline hot-unplugs a core; the scheduler drains and migrates its
	// threads (see sched.SetOnline for the affinity-strand policy).
	Offline
	// Online re-plugs a previously offlined core.
	Online
	// Stall pauses the entire machine for a duration (SMI/firmware-style
	// transient).
	Stall
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Throttle:
		return "throttle"
	case Restore:
		return "restore"
	case Offline:
		return "offline"
	case Online:
		return "online"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual time the fault fires.
	At simtime.Time
	// Kind classifies the fault.
	Kind Kind
	// Core is the target core for Throttle, Restore, Offline and Online;
	// -1 for machine-wide kinds.
	Core int
	// Duty is the new duty cycle for Throttle, in (0, 1].
	Duty float64
	// Dur is the stall duration for Stall.
	Dur simtime.Duration
}

// ThrottleAt returns a throttle event.
func ThrottleAt(at simtime.Time, core int, duty float64) Event {
	return Event{At: at, Kind: Throttle, Core: core, Duty: duty}
}

// RestoreAt returns a restore event.
func RestoreAt(at simtime.Time, core int) Event {
	return Event{At: at, Kind: Restore, Core: core}
}

// OfflineAt returns a core hot-unplug event.
func OfflineAt(at simtime.Time, core int) Event {
	return Event{At: at, Kind: Offline, Core: core}
}

// OnlineAt returns a core re-plug event.
func OnlineAt(at simtime.Time, core int) Event {
	return Event{At: at, Kind: Online, Core: core}
}

// StallAt returns a machine-wide stall event.
func StallAt(at simtime.Time, dur simtime.Duration) Event {
	return Event{At: at, Kind: Stall, Core: -1, Dur: dur}
}

// String renders the event in the Parse syntax.
func (e Event) String() string {
	switch e.Kind {
	case Throttle:
		return fmt.Sprintf("throttle@%s:%d:%g", fmtTime(e.At), e.Core, e.Duty)
	case Stall:
		return fmt.Sprintf("stall@%s:%s", fmtTime(e.At), fmtTime(simtime.Time(e.Dur)))
	default:
		return fmt.Sprintf("%s@%s:%d", e.Kind, fmtTime(e.At), e.Core)
	}
}

// fmtTime renders a time in the exact-round-trip form Parse accepts.
func fmtTime(t simtime.Time) string {
	return strconv.FormatFloat(float64(t), 'g', -1, 64) + "s"
}

// Plan is an ordered schedule of fault events. The zero value (and nil)
// is the empty plan.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// String renders the plan in the Parse syntax (comma-separated events).
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Validate checks every event against a machine with numCores cores.
func (p *Plan) Validate(numCores int) error {
	if p.Empty() {
		return nil
	}
	for i, e := range p.Events {
		prefix := fmt.Sprintf("fault: event %d (%s)", i, e)
		if e.At < 0 || e.At == simtime.Never {
			return fmt.Errorf("%s: invalid time", prefix)
		}
		switch e.Kind {
		case Throttle:
			if err := checkDuty(e.Duty); err != nil {
				return fmt.Errorf("%s: %w", prefix, err)
			}
			fallthrough
		case Restore, Offline, Online:
			if e.Core < 0 || e.Core >= numCores {
				return fmt.Errorf("%s: core %d out of range [0, %d)", prefix, e.Core, numCores)
			}
		case Stall:
			if e.Dur <= 0 {
				return fmt.Errorf("%s: non-positive stall duration", prefix)
			}
		default:
			return fmt.Errorf("%s: unknown kind", prefix)
		}
	}
	return nil
}

// Schedule registers the plan's events on the environment, targeting the
// scheduler. Restore events capture each core's duty cycle as of this
// call. Events at equal times fire in plan order. The plan should be
// validated against the machine first; a bad core index will otherwise
// surface as a scheduler panic at fire time.
func (p *Plan) Schedule(env *sim.Env, s *sched.Scheduler) {
	if p.Empty() {
		return
	}
	base := make([]float64, s.Machine().NumCores())
	for i := range base {
		base[i] = s.Duty(i)
	}
	for _, e := range p.Events {
		e := e
		switch e.Kind {
		case Throttle:
			env.At(e.At, func() { s.SetDuty(e.Core, e.Duty) })
		case Restore:
			env.At(e.At, func() { s.SetDuty(e.Core, base[e.Core]) })
		case Offline:
			env.At(e.At, func() { s.SetOnline(e.Core, false) })
		case Online:
			env.At(e.At, func() { s.SetOnline(e.Core, true) })
		case Stall:
			env.At(e.At, func() { s.Stall(e.Dur) })
		}
	}
}

// Parse builds a plan from its compact text form: comma-separated
// events, each `kind@time` plus kind-specific fields —
//
//	throttle@1.5s:CORE:DUTY   drop CORE to DUTY (0 < duty <= 1)
//	restore@3.5s:CORE         restore CORE's original duty
//	offline@1.5s:CORE         hot-unplug CORE
//	online@3.5s:CORE          re-plug CORE
//	stall@2s:50ms             stall the whole machine for the duration
//
// plus the dynamic-asymmetry duty-trace generators (see traces.go),
// each of which expands at parse time into plain throttle/restore
// events:
//
//	wave@1s:500ms:CORE:DUTY:N     N-cycle thermal square wave: throttle
//	                              to DUTY for half of each 500ms period
//	walk@1s:500ms:CORE:SEED:N     N-step random walk over the hardware
//	                              duty steps, seeded by SEED, then restore
//	stairs@1s:500ms:CORE:FLOOR:N  staged degradation to FLOOR in N equal
//	                              stages, one every 500ms (no recovery)
//
// Times and durations take the suffixes ns, us, ms, s and min. Because
// generators expand to plain events, Plan.String() of a parsed trace
// renders the expansion — which round-trips through Parse and gives
// every distinct trace a distinct run identity.
func Parse(text string) (*Plan, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return &Plan{}, nil
	}
	var p Plan
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if isTrace(part) {
			events, err := parseTrace(part)
			if err != nil {
				return nil, err
			}
			p.Events = append(p.Events, events...)
			continue
		}
		e, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, e)
	}
	return &p, nil
}

func parseEvent(text string) (Event, error) {
	kindStr, rest, ok := strings.Cut(text, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: %q: want kind@time[:args]", text)
	}
	var kind Kind
	switch kindStr {
	case "throttle":
		kind = Throttle
	case "restore":
		kind = Restore
	case "offline":
		kind = Offline
	case "online":
		kind = Online
	case "stall":
		kind = Stall
	default:
		return Event{}, fmt.Errorf("fault: %q: unknown kind %q", text, kindStr)
	}
	fields := strings.Split(rest, ":")
	at, err := parseDuration(fields[0])
	if err != nil {
		return Event{}, fmt.Errorf("fault: %q: bad time: %w", text, err)
	}
	e := Event{At: at, Kind: kind, Core: -1}
	arity := map[Kind]int{Throttle: 3, Restore: 2, Offline: 2, Online: 2, Stall: 2}[kind]
	if len(fields) != arity {
		return Event{}, fmt.Errorf("fault: %q: want %d fields after %q, got %d", text, arity-1, kindStr+"@", len(fields)-1)
	}
	switch kind {
	case Throttle, Restore, Offline, Online:
		core, err := strconv.Atoi(fields[1])
		if err != nil {
			return Event{}, fmt.Errorf("fault: %q: bad core: %w", text, err)
		}
		e.Core = core
		if kind == Throttle {
			duty, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return Event{}, fmt.Errorf("fault: %q: bad duty: %w", text, err)
			}
			// ParseFloat happily produces NaN and ±Inf; refuse them at
			// the syntax layer so a poisoned duty never propagates.
			// Finite out-of-range values are Validate's job, like core
			// indices.
			if math.IsNaN(duty) || math.IsInf(duty, 0) {
				return Event{}, fmt.Errorf("fault: %q: %w", text, &DutyError{Duty: duty})
			}
			e.Duty = duty
		}
	case Stall:
		dur, err := parseDuration(fields[1])
		if err != nil {
			return Event{}, fmt.Errorf("fault: %q: bad duration: %w", text, err)
		}
		e.Dur = dur
	}
	return e, nil
}

// ParseDuration parses a virtual duration in the plan syntax — "1.5s",
// "50ms", "250us", "10ns" or "2min" — for callers (the CLIs) that take
// durations as flags.
func ParseDuration(text string) (simtime.Duration, error) {
	return parseDuration(text)
}

// FormatDuration renders d in the exact-round-trip form ParseDuration
// accepts — the canonical text of a duration, so "25s" and "25000ms"
// render alike.
func FormatDuration(d simtime.Duration) string { return fmtTime(d) }

// parseDuration parses "1.5s", "50ms", "250us", "10ns" or "2min" into
// simulated time.
func parseDuration(text string) (simtime.Time, error) {
	unit := simtime.Second
	num := text
	switch {
	case strings.HasSuffix(text, "ns"):
		unit, num = simtime.Nanosecond, text[:len(text)-2]
	case strings.HasSuffix(text, "us"):
		unit, num = simtime.Microsecond, text[:len(text)-2]
	case strings.HasSuffix(text, "ms"):
		unit, num = simtime.Millisecond, text[:len(text)-2]
	case strings.HasSuffix(text, "min"):
		unit, num = simtime.Minute, text[:len(text)-3]
	case strings.HasSuffix(text, "s"):
		num = text[:len(text)-1]
	default:
		return 0, fmt.Errorf("missing unit (ns/us/ms/s/min) in %q", text)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number in %q", text)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative duration %q", text)
	}
	return simtime.Time(v) * unit, nil
}
