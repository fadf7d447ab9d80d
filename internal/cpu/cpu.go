// Package cpu models the hardware platform of the study: a small
// shared-memory multiprocessor whose cores can be slowed by duty-cycle
// clock modulation, exactly the mechanism the paper uses on Intel Xeon
// processors to emulate performance asymmetry.
//
// Work is measured in cycles of the full-speed core. A core with duty
// cycle d retires cycles at rate d * BaseHz, so the same work takes 1/d
// times longer on it. Memory and interconnect are deliberately not
// modelled: the paper argues (and validates) that the instability and
// scalability effects under study stem from compute-capacity differences
// alone.
package cpu

import (
	"fmt"
	"strconv"
	"strings"
)

// BaseHz is the cycle rate of a full-speed core, matching the paper's
// 2.8 GHz Xeon.
const BaseHz = 2.8e9

// MaxCores bounds the machine size ParseConfig accepts. The study's
// machines have 4 cores; 64 leaves room for scaled-up experiments while
// rejecting typo-sized configurations before they allocate a machine.
const MaxCores = 64

// maxConfigLen bounds ParseConfig's input, which arrives from flags and
// request bodies. Every sensible configuration is far shorter; longer
// input is refused before any work and without being echoed back.
const maxConfigLen = 64

// DutySteps are the duty-cycle settings supported by the clock-modulation
// hardware (plus full speed), per the paper's methodology section.
var DutySteps = []float64{0.125, 0.25, 0.375, 0.5, 0.635, 0.75, 0.875, 1.0}

// Core describes one processor.
type Core struct {
	// ID is the core's index within its machine.
	ID int
	// Duty is the active clock duty cycle in (0, 1]; 1 is full speed.
	Duty float64
}

// Rate returns the core's cycle retire rate in cycles per second.
func (c Core) Rate() float64 { return c.Duty * BaseHz }

// TimeFor returns the seconds the core needs to retire the given cycles.
func (c Core) TimeFor(cycles float64) float64 { return cycles / c.Rate() }

// Machine is a set of cores sharing memory.
type Machine struct {
	Cores []Core
}

// NewMachine builds a machine from per-core duty cycles.
func NewMachine(duties ...float64) Machine {
	m := Machine{Cores: make([]Core, len(duties))}
	for i, d := range duties {
		if d <= 0 || d > 1 {
			panic(fmt.Sprintf("cpu: duty cycle %v out of (0, 1]", d))
		}
		m.Cores[i] = Core{ID: i, Duty: d}
	}
	return m
}

// NumCores returns the machine's core count.
func (m Machine) NumCores() int { return len(m.Cores) }

// ComputePower returns the total compute capacity in units of one
// full-speed core (the paper's "n + m/scale").
func (m Machine) ComputePower() float64 {
	sum := 0.0
	for _, c := range m.Cores {
		sum += c.Duty
	}
	return sum
}

// MaxDuty returns the duty cycle of the fastest core (0 for an empty
// machine).
func (m Machine) MaxDuty() float64 {
	max := 0.0
	for _, c := range m.Cores {
		if c.Duty > max {
			max = c.Duty
		}
	}
	return max
}

// MinDuty returns the duty cycle of the slowest core (0 for an empty
// machine).
func (m Machine) MinDuty() float64 {
	if len(m.Cores) == 0 {
		return 0
	}
	min := m.Cores[0].Duty
	for _, c := range m.Cores[1:] {
		if c.Duty < min {
			min = c.Duty
		}
	}
	return min
}

// Symmetric reports whether all cores share one duty cycle.
func (m Machine) Symmetric() bool {
	for _, c := range m.Cores[1:] {
		if c.Duty != m.Cores[0].Duty {
			return false
		}
	}
	return true
}

// Config is the paper's nf-ms/scale notation: Fast full-speed cores plus
// Slow cores running at 1/Scale of full speed.
type Config struct {
	Fast  int
	Slow  int
	Scale int // meaningful only when Slow > 0
}

// String renders the canonical form, e.g. "2f-2s/8" or "4f-0s".
func (c Config) String() string {
	if c.Slow == 0 {
		return fmt.Sprintf("%df-0s", c.Fast)
	}
	return fmt.Sprintf("%df-%ds/%d", c.Fast, c.Slow, c.Scale)
}

// ParseConfig parses the nf-ms/scale notation. Accepted forms are
// "4f-0s", "2f-2s/8" and the hyphen-less variant "2f2s/8" that appears in
// some of the paper's axis labels.
func ParseConfig(s string) (Config, error) {
	if len(s) > maxConfigLen {
		return Config{}, fmt.Errorf("cpu: configuration of %d bytes is too long; at most %d are supported", len(s), maxConfigLen)
	}
	orig := s
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, "-", "")
	fIdx := strings.IndexByte(s, 'f')
	sIdx := strings.IndexByte(s, 's')
	if fIdx <= 0 || sIdx <= fIdx+1 {
		return Config{}, fmt.Errorf("cpu: malformed configuration %q", orig)
	}
	fast, err := strconv.Atoi(s[:fIdx])
	if err != nil {
		return Config{}, fmt.Errorf("cpu: bad fast-core count in %q", orig)
	}
	slow, err := strconv.Atoi(s[fIdx+1 : sIdx])
	if err != nil {
		return Config{}, fmt.Errorf("cpu: bad slow-core count in %q", orig)
	}
	cfg := Config{Fast: fast, Slow: slow, Scale: 1}
	rest := s[sIdx+1:]
	switch {
	case rest == "":
		if slow > 0 {
			return Config{}, fmt.Errorf("cpu: configuration %q has slow cores but no scale", orig)
		}
	case rest[0] == '/':
		scale, err := strconv.Atoi(rest[1:])
		if err != nil || scale < 1 {
			return Config{}, fmt.Errorf("cpu: bad scale in %q", orig)
		}
		cfg.Scale = scale
	default:
		return Config{}, fmt.Errorf("cpu: malformed configuration %q", orig)
	}
	if cfg.Fast < 0 || cfg.Slow < 0 || cfg.Fast+cfg.Slow == 0 {
		return Config{}, fmt.Errorf("cpu: configuration %q has no cores", orig)
	}
	// Bound each count before summing: two huge counts would wrap the
	// sum negative and slip past the limit.
	if cfg.Fast > MaxCores || cfg.Slow > MaxCores || cfg.Fast+cfg.Slow > MaxCores {
		return Config{}, fmt.Errorf("cpu: configuration %q has too many cores; at most %d are supported", orig, MaxCores)
	}
	if cfg.Slow == 0 {
		cfg.Scale = 1 // a scale without slow cores means nothing; String drops it
	}
	return cfg, nil
}

// MustParseConfig is ParseConfig for known-good literals; it panics on
// error.
func MustParseConfig(s string) Config {
	c, err := ParseConfig(s)
	if err != nil {
		panic(err)
	}
	return c
}

// Machine materialises the configuration: fast cores first, then slow
// cores, matching the paper's core numbering.
func (c Config) Machine() Machine {
	duties := make([]float64, 0, c.Fast+c.Slow)
	for i := 0; i < c.Fast; i++ {
		duties = append(duties, 1.0)
	}
	for i := 0; i < c.Slow; i++ {
		duties = append(duties, 1.0/float64(c.Scale))
	}
	return NewMachine(duties...)
}

// ComputePower returns n + m/scale in units of one fast core.
func (c Config) ComputePower() float64 {
	return float64(c.Fast) + float64(c.Slow)/float64(c.Scale)
}

// Symmetric reports whether the configuration has only one core speed.
func (c Config) Symmetric() bool { return c.Fast == 0 || c.Slow == 0 }

// StandardConfigs are the nine configurations every experiment in the
// paper sweeps, in the order the figures present them (decreasing total
// compute power).
var StandardConfigs = []Config{
	{Fast: 4, Slow: 0, Scale: 1},
	{Fast: 3, Slow: 1, Scale: 4},
	{Fast: 3, Slow: 1, Scale: 8},
	{Fast: 2, Slow: 2, Scale: 4},
	{Fast: 2, Slow: 2, Scale: 8},
	{Fast: 1, Slow: 3, Scale: 4},
	{Fast: 1, Slow: 3, Scale: 8},
	{Fast: 0, Slow: 4, Scale: 4},
	{Fast: 0, Slow: 4, Scale: 8},
}

// ConfigNames returns the canonical names of StandardConfigs.
func ConfigNames() []string {
	out := make([]string, len(StandardConfigs))
	for i, c := range StandardConfigs {
		out[i] = c.String()
	}
	return out
}
