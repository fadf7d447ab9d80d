package core

import (
	"fmt"
	"strconv"
	"strings"

	"asmp/internal/cpu"
	"asmp/internal/fault"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/workload"
)

// SweepSpec is a sweep written as text: the fields asmp-sweep's flags
// and the POST /v1/sweep body share. Experiment is the one decoder from
// this text to a sweep and Args the one rendering back to flags, so
// every front end accepts, refuses and identifies a sweep alike.
type SweepSpec struct {
	Workload string   `json:"workload"`
	Configs  []string `json:"configs"` // empty = the paper's nine
	Runs     int      `json:"runs"`
	Policy   string   `json:"policy"` // "" = naive
	Seed     uint64   `json:"seed"`   // 0 = 1
	Fault    string   `json:"fault"`
	// Timeout is the per-run virtual-time watchdog ("30s", "2min"):
	// simulated time, not wall time.
	Timeout string `json:"timeout"`
	Retries int    `json:"retries"`
}

// Experiment validates the spec and returns the sweep it names, with
// the policy, seed and configuration defaults applied. flag prefixes
// field names in error messages ("-" for a command line, "" for a
// request body). On success s is rewritten in canonical form, read
// back from the sweep's journal header: every spelling of one sweep
// (the configs omitted or listed, "aware" or "asymmetry-aware", "25s"
// or "25000ms") becomes one spec, and Args or a JSON encoding of it
// decodes back to the same Identity. The fault text alone stays as
// given: the header holds the plan's expansion, which a generator such
// as wave@ can grow past what one argv string may hold, and the text
// decodes to the same plan either way.
func (s *SweepSpec) Experiment(flag string) (Experiment, error) {
	w, err := workload.New(s.Workload)
	if err != nil {
		return Experiment{}, err
	}
	if s.Runs < 1 {
		return Experiment{}, fmt.Errorf("%sruns must be at least 1, got %d", flag, s.Runs)
	}
	if s.Retries < 0 {
		return Experiment{}, fmt.Errorf("%sretries must be non-negative, got %d", flag, s.Retries)
	}
	pol, err := ParsePolicy(s.Policy)
	if err != nil {
		return Experiment{}, err
	}
	cfgs := cpu.StandardConfigs
	if len(s.Configs) > 0 {
		cfgs = make([]cpu.Config, len(s.Configs))
	}
	for i, text := range s.Configs {
		if cfgs[i], err = cpu.ParseConfig(text); err != nil {
			return Experiment{}, err
		}
	}
	var plan *fault.Plan
	if s.Fault != "" {
		if plan, err = fault.Parse(s.Fault); err != nil {
			return Experiment{}, err
		}
		for _, c := range cfgs {
			if err := plan.Validate(c.Fast + c.Slow); err != nil {
				return Experiment{}, fmt.Errorf("fault plan does not fit %s: %w", c, err)
			}
		}
	}
	limits, err := ParseTimeout(s.Timeout, flag)
	if err != nil {
		return Experiment{}, err
	}
	e := Experiment{
		Name:     fmt.Sprintf("%s (%s scheduler, %d runs)", w.Name(), pol, s.Runs),
		Workload: w,
		Configs:  cfgs,
		Runs:     s.Runs,
		Sched:    sched.Defaults(pol),
		BaseSeed: max(s.Seed, 1),
		Fault:    plan,
		Limits:   limits,
		Retries:  s.Retries,
	}
	h := e.JournalHeader()
	*s = SweepSpec{
		Workload: h.Workload,
		Configs:  h.Configs,
		Runs:     h.Runs,
		Policy:   h.Policy,
		Seed:     h.BaseSeed,
		Fault:    s.Fault,
		Timeout:  h.Timeout,
		Retries:  h.Retries,
	}
	return e, nil
}

// Args renders the spec as the asmp-sweep flags that decode back to
// it: the argv a sharded sweep re-execs its workers with.
func (s SweepSpec) Args() []string {
	return []string{
		"-workload", s.Workload,
		"-configs", strings.Join(s.Configs, ","),
		"-runs", strconv.Itoa(s.Runs),
		"-policy", s.Policy,
		"-seed", strconv.FormatUint(s.Seed, 10),
		"-fault", s.Fault,
		"-timeout", s.Timeout,
		"-retries", strconv.Itoa(s.Retries),
	}
}

// ParseTimeout is the watchdog decoder of every text front end: "" is
// no limit, and anything else must be a positive fault-plan duration
// ("30s", "2min") of virtual time. flag prefixes the field name in the
// error, as in SweepSpec.Experiment.
func ParseTimeout(text, flag string) (sim.Limits, error) {
	if text == "" {
		return sim.Limits{}, nil
	}
	d, err := fault.ParseDuration(text)
	if err != nil || !(d > 0) {
		return sim.Limits{}, fmt.Errorf("bad %stimeout %q (want e.g. 30s, 500ms, 2min)", flag, text)
	}
	return sim.Limits{MaxVirtualTime: d}, nil
}

// ParsePolicy is the policy decoder of every text front end: "" is the
// naive default, and any name defers to sched.ParsePolicy, so a sweep
// spec and a POST /v1/run body accept exactly what the CLIs accept.
func ParsePolicy(name string) (sched.Policy, error) {
	if name == "" {
		return sched.PolicyNaive, nil
	}
	return sched.ParsePolicy(name)
}
