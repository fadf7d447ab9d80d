package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"asmp/internal/cpu"
	"asmp/internal/fault"
	"asmp/internal/journal"
	"asmp/internal/sched"
)

// TestExperimentIdentityDiscriminates classifies every leaf field of
// Experiment, found by reflection, as one of three kinds:
//
//   - pinned: changing it changes Identity, and CheckHeader refuses the
//     old header naming the field's header key;
//   - wall-time or label only: it never changes a cell's result;
//   - not journal-pinned: it reaches cells, but no front end can set it
//     on a journaled or served sweep (both decode through SweepSpec),
//     and memoKey pins it per cell.
//
// Workload options beyond Name() are not journal-pinned either, for the
// same reason; they sit behind the Workload interface, where the walk
// does not reach. A field added to Experiment, sched.Options or
// sim.Limits fails here until it is classified.
func TestExperimentIdentityDiscriminates(t *testing.T) {
	plan, err := fault.Parse("offline@1s:0")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{
		"Experiment.Workload":              "workload",
		"Experiment.Configs":               "configs",
		"Experiment.Runs":                  "runs",
		"Experiment.Sched.Policy":          "policy",
		"Experiment.BaseSeed":              "baseSeed",
		"Experiment.Fault":                 "fault",
		"Experiment.Limits.MaxVirtualTime": "timeout",
		"Experiment.Retries":               "retries",
	}
	labels := map[string]bool{
		"Experiment.Name":       true,
		"Experiment.Sequential": true,
		"Experiment.Workers":    true,
		"Experiment.Cancel":     true,
		"Experiment.Journal":    true,
		"Experiment.Shard":      true,
	}
	const knob = "scheduler knob: every front end sets sched.Defaults(Policy)"
	const limit = "watchdog no front end sets"
	unpinned := map[string]string{
		"Experiment.Sched.Timeslice":         knob,
		"Experiment.Sched.BalanceInterval":   knob,
		"Experiment.Sched.MigrationCost":     knob,
		"Experiment.Sched.RandomWakeups":     knob,
		"Experiment.Sched.StealThreshold":    knob,
		"Experiment.Sched.NoForcedMigration": knob,
		"Experiment.Limits.MaxEvents":        limit,
		"Experiment.Limits.DetectDeadlock":   limit,
	}
	// perturb changes the leaves bump cannot.
	perturb := map[string]any{
		"Experiment.Workload": memoProbe{},
		"Experiment.Configs":  testConfigs(t)[:2],
		"Experiment.Fault":    plan,
		"Experiment.Cancel":   (<-chan struct{})(make(chan struct{})),
		"Experiment.Journal":  new(journal.Writer),
		"Experiment.Shard":    &ShardRange{Of: 1, Hi: 1},
	}

	base := Experiment{
		Name:     "identity",
		Workload: powerProbe{},
		Configs:  testConfigs(t),
		Runs:     2,
		Sched:    sched.Defaults(sched.PolicyNaive),
		BaseSeed: 7,
	}
	stored := base.JournalHeader()
	id := base.Identity()
	seen := 0
	e := base
	forEachLeaf(reflect.ValueOf(&e).Elem(), "Experiment", func(name string, f reflect.Value) {
		old := reflect.New(f.Type()).Elem()
		old.Set(f)
		defer f.Set(old)
		if v, ok := perturb[name]; ok {
			f.Set(reflect.ValueOf(v))
		} else {
			bump(f)
		}
		changed := e.Identity() != id
		err := e.CheckHeader(&stored)
		switch key := pinned[name]; {
		case key != "":
			seen++
			if !changed {
				t.Errorf("%s is pinned but does not change Identity", name)
			}
			if err == nil || !strings.Contains(err.Error(), "records a different sweep: "+key+" is ") {
				t.Errorf("%s changed: CheckHeader = %v, want a refusal naming %q", name, err, key)
			}
		case labels[name] || unpinned[name] != "":
			seen++
			if changed || err != nil {
				t.Errorf("%s is not identity but changed it (CheckHeader = %v)", name, err)
			}
		default:
			t.Errorf("Experiment leaf %s is unclassified: pin it in the journal header or list why not", name)
		}
	})
	if want := len(pinned) + len(labels) + len(unpinned); seen != want {
		t.Errorf("classified %d leaves, want %d: a listed field no longer exists", seen, want)
	}
	// Labels the header carries but identity ignores.
	other := stored
	other.Tool, other.Name = "asmp-sweep", "renamed"
	if err := base.CheckHeader(&other); err != nil {
		t.Errorf("header labels refused: %v", err)
	}
}

// TestSweepSpecCanonical: every spelling of one sweep decodes to one
// Identity and one canonical spec, and Args renders that spec's flags.
func TestSweepSpecCanonical(t *testing.T) {
	var nine []string
	for _, c := range cpu.StandardConfigs {
		nine = append(nine, c.String())
	}
	specs := []SweepSpec{
		{Workload: "tpch", Runs: 2, Policy: "aware", Timeout: "25s", Retries: 1},
		{Workload: "tpch", Runs: 2, Policy: "asymmetry-aware", Seed: 1, Timeout: "25000ms", Retries: 1, Configs: nine},
	}
	var ids []string
	for i := range specs {
		e, err := specs[i].Experiment("")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.Identity())
	}
	if ids[0] != ids[1] {
		t.Fatalf("one sweep, two identities:\n%s\n%s", ids[0], ids[1])
	}
	if !reflect.DeepEqual(specs[0], specs[1]) {
		t.Fatalf("one sweep, two canonical specs:\n%+v\n%+v", specs[0], specs[1])
	}
	want := "-workload tpch -configs " + strings.Join(nine, ",") +
		" -runs 2 -policy asymmetry-aware -seed 1 -fault  -timeout 25s -retries 1"
	if got := strings.Join(specs[0].Args(), " "); got != want {
		t.Fatalf("Args = %s\nwant   %s", got, want)
	}
}

// FuzzSweepSpec drives the one sweep decoder with hostile request
// bodies (sched.ParsePolicy, cpu.ParseConfig, fault.Parse and the
// duration parser all sit behind it). It must never panic; an accepted
// spec's canonical re-encoding must decode to the same spec and
// Identity; and two specs with equal identities must have one canonical
// spec, the fault text aside, and run the same cells: equal cell keys for every cell and
// attempt.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range [][2]string{
		// POST /v1/sweep bodies from the server's error-path tests.
		{`{"workload":"specjbb","runs":-1}`, `{"workload":"specjbb","retries":-1}`},
		{`{"workload":"specjbb","fault":"explode@1s:0"}`, `{"workload":"specjbb","configs":["4f-0s"],"fault":"offline@1s:7"}`},
		{`{"workload":"specjbb","timeout":"eleven"}`, `{"workload":"nope"}`},
		// asmp-sweep's error-path flags, as bodies.
		{`{"workload":"specjbb","runs":1,"configs":["lots-of-cores"]}`, `{"workload":"specjbb","runs":1,"configs":["2f-2s"]}`},
		{`{"workload":"specjbb","runs":1,"configs":["999f-0s"]}`, `{"workload":"specjbb","runs":1,"policy":"psychic"}`},
		{`{"workload":"specjbb","runs":0}`, `{"workload":"specjbb","runs":1,"fault":"offline@1s:5"}`},
		{`{"workload":"specjbb","runs":1,"timeout":"0s"}`, `{"workload":"specjbb","runs":1,"timeout":"NaNs"}`},
		// Accepted bodies that name one sweep two ways.
		{`{"workload":"specjbb","runs":2}`, `{"workload":"specjbb","runs":2,"seed":1,"policy":"naive","configs":["4f-0s","3f-1s/4","3f-1s/8","2f-2s/4","2f-2s/8","1f-3s/4","1f-3s/8","0f-4s/4","0f-4s/8"]}`},
		{`{"workload":"tpch","runs":2,"policy":"aware","timeout":"25s","retries":1}`, `{"workload":"tpch","runs":2,"policy":"asymmetry-aware","timeout":"25000ms","retries":1}`},
		{`{"workload":"zeus","runs":1,"configs":["4f-0s/4"],"fault":"throttle@1.5s:0:0.125,restore@3.5s:0","seed":0}`, `{"workload":"zeus","runs":1,"configs":["4f-0s"],"fault":"throttle@1500ms:0:0.125,restore@3.5s:0","seed":1}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ea, sa, okA := decodeSweepBody(t, a)
		eb, sb, okB := decodeSweepBody(t, b)
		if !okA || !okB || ea.Identity() != eb.Identity() {
			return
		}
		// The fault text stays as given; equal identities already pin
		// the plan it decodes to.
		sa.Fault, sb.Fault = "", ""
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("identity %s has two canonical specs:\n%+v\n%+v", ea.Identity(), sa, sb)
		}
		configs, runs, base := ea.normalized()
		configsB, _, baseB := eb.normalized()
		// Every cell of a small grid; the corners of one whose keys
		// would take long to build (many cells, or a long fault plan
		// copied into every key).
		cells := []cellKey{{0, 0}, {len(configs) - 1, runs - 1}}
		if runs <= 256/len(configs) && len(ea.JournalHeader().Fault) <= 1<<16 {
			cells = cells[:0]
			for c := range configs {
				for r := 0; r < runs; r++ {
					cells = append(cells, cellKey{c, r})
				}
			}
		}
		specA, specB := ea.cellSpec(configs, base), eb.cellSpec(configsB, baseB)
		for _, cl := range cells {
			for attempt := 0; attempt <= min(ea.Retries, 2); attempt++ {
				ka := CellKey(specA(cl, attempt))
				kb := CellKey(specB(cl, attempt))
				if ka != kb {
					t.Fatalf("identity %s: cell %v attempt %d keys differ:\n%s\n%s", ea.Identity(), cl, attempt, ka, kb)
				}
			}
		}
	})
}

// decodeSweepBody decodes body as POST /v1/sweep does and checks the
// canonical re-encoding round trip of an accepted spec, which it
// returns with the sweep.
func decodeSweepBody(t *testing.T, body []byte) (Experiment, SweepSpec, bool) {
	var s SweepSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&s) != nil {
		return Experiment{}, s, false
	}
	e, err := s.Experiment("")
	if err != nil {
		return Experiment{}, s, false
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("canonical spec %+v does not encode: %v", s, err)
	}
	var again SweepSpec
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatalf("canonical spec %s does not decode: %v", raw, err)
	}
	e2, err := again.Experiment("")
	if err != nil {
		t.Fatalf("canonical spec %s refused: %v", raw, err)
	}
	if !reflect.DeepEqual(again, s) {
		t.Fatalf("canonical spec is not a fixed point:\n%+v\n%+v", s, again)
	}
	if e.Identity() != e2.Identity() {
		t.Fatalf("canonical re-encoding %s changed the identity:\n%s\n%s", raw, e.Identity(), e2.Identity())
	}
	return e, s, true
}
