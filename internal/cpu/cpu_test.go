package cpu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCoreRate(t *testing.T) {
	c := Core{ID: 0, Duty: 0.5}
	if c.Rate() != 0.5*BaseHz {
		t.Fatalf("Rate = %v", c.Rate())
	}
	if got := c.TimeFor(BaseHz); got != 2 {
		t.Fatalf("half-speed core should take 2s for BaseHz cycles, got %v", got)
	}
}

func TestNewMachineValidates(t *testing.T) {
	for _, d := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duty %v did not panic", d)
				}
			}()
			NewMachine(d)
		}()
	}
}

func TestMachineAggregates(t *testing.T) {
	m := NewMachine(1, 1, 0.125, 0.125)
	if m.NumCores() != 4 {
		t.Fatal("NumCores")
	}
	if !approx(m.ComputePower(), 2.25) {
		t.Fatalf("ComputePower = %v, want 2.25", m.ComputePower())
	}
	if m.MaxDuty() != 1 || m.MinDuty() != 0.125 {
		t.Fatalf("MaxDuty/MinDuty = %v/%v", m.MaxDuty(), m.MinDuty())
	}
	if m.Symmetric() {
		t.Fatal("asymmetric machine reported symmetric")
	}
	if !NewMachine(0.25, 0.25).Symmetric() {
		t.Fatal("symmetric machine reported asymmetric")
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// parseCases and parseErrors are ParseConfig's accepted and refused
// inputs; FuzzParseConfig seeds its corpus from both.
var parseCases = []struct {
	in   string
	want Config
}{
	{"4f-0s", Config{4, 0, 1}},
	{"4f-0s/4", Config{4, 0, 1}},
	{"2f-2s/8", Config{2, 2, 8}},
	{"2f2s/8", Config{2, 2, 8}},
	{"0f-4s/4", Config{0, 4, 4}},
	{" 3F-1S/4 ", Config{3, 1, 4}},
	{"1f-3s/8", Config{1, 3, 8}},
	{"64f-0s", Config{64, 0, 1}},
}

var parseErrors = []string{"", "4f", "f-2s/8", "2f-2s", "2f-2s/", "2f-2s/0", "2f-2s/x", "0f-0s", "2f-2s8", "xfys/2",
	"65f-0s", "33f-32s/8",
	// The counts wrap negative when summed.
	"9223372036854775807f-1s/8",
	"9223372036854775807f-9223372036854775807s/8",
	strings.Repeat("0", 60) + "4f-0s",
}

func TestParseConfig(t *testing.T) {
	for _, c := range parseCases {
		got, err := ParseConfig(c.in)
		if err != nil {
			t.Errorf("ParseConfig(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseConfig(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, in := range parseErrors {
		if _, err := ParseConfig(in); err == nil {
			t.Errorf("ParseConfig(%q) succeeded, want error", in)
		}
	}
}

func TestMustParseConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseConfig on bad input did not panic")
		}
	}()
	MustParseConfig("nope")
}

func TestConfigString(t *testing.T) {
	if got := (Config{4, 0, 1}).String(); got != "4f-0s" {
		t.Fatalf("String = %q", got)
	}
	if got := (Config{2, 2, 8}).String(); got != "2f-2s/8" {
		t.Fatalf("String = %q", got)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	for _, c := range StandardConfigs {
		got, err := ParseConfig(c.String())
		if err != nil {
			t.Fatalf("round-trip %v: %v", c, err)
		}
		// Slow==0 canonicalises Scale to 1.
		if got.Fast != c.Fast || got.Slow != c.Slow || (c.Slow > 0 && got.Scale != c.Scale) {
			t.Fatalf("round-trip %v = %+v", c, got)
		}
	}
}

func TestConfigMachine(t *testing.T) {
	m := Config{Fast: 2, Slow: 2, Scale: 8}.Machine()
	if m.NumCores() != 4 {
		t.Fatal("core count")
	}
	if m.Cores[0].Duty != 1 || m.Cores[1].Duty != 1 {
		t.Fatal("fast cores not first")
	}
	if m.Cores[2].Duty != 0.125 || m.Cores[3].Duty != 0.125 {
		t.Fatal("slow cores wrong duty")
	}
}

func TestConfigComputePower(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"4f-0s", 4},
		{"3f-1s/4", 3.25},
		{"3f-1s/8", 3.125},
		{"2f-2s/4", 2.5},
		{"2f-2s/8", 2.25},
		{"1f-3s/4", 1.75},
		{"1f-3s/8", 1.375},
		{"0f-4s/4", 1},
		{"0f-4s/8", 0.5},
	}
	for _, c := range cases {
		cfg := MustParseConfig(c.in)
		if !approx(cfg.ComputePower(), c.want) {
			t.Errorf("%s power = %v, want %v", c.in, cfg.ComputePower(), c.want)
		}
		if !approx(cfg.Machine().ComputePower(), c.want) {
			t.Errorf("%s machine power = %v, want %v", c.in, cfg.Machine().ComputePower(), c.want)
		}
	}
}

func TestStandardConfigsOrder(t *testing.T) {
	if len(StandardConfigs) != 9 {
		t.Fatalf("expected 9 standard configs, got %d", len(StandardConfigs))
	}
	// The figures order configurations by decreasing total compute power.
	for i := 1; i < len(StandardConfigs); i++ {
		if StandardConfigs[i].ComputePower() > StandardConfigs[i-1].ComputePower() {
			t.Fatalf("configs out of order at %d: %v after %v",
				i, StandardConfigs[i], StandardConfigs[i-1])
		}
	}
	names := ConfigNames()
	if names[0] != "4f-0s" || names[8] != "0f-4s/8" {
		t.Fatalf("names = %v", names)
	}
}

func TestConfigSymmetric(t *testing.T) {
	for _, c := range StandardConfigs {
		wantSym := c.Fast == 0 || c.Slow == 0
		if c.Symmetric() != wantSym {
			t.Errorf("%v Symmetric = %v", c, c.Symmetric())
		}
		if c.Machine().Symmetric() != wantSym {
			t.Errorf("%v Machine.Symmetric = %v", c, c.Machine().Symmetric())
		}
	}
}

func TestDutySteps(t *testing.T) {
	if len(DutySteps) != 8 {
		t.Fatalf("expected 8 duty steps, got %d", len(DutySteps))
	}
	for i := 1; i < len(DutySteps); i++ {
		if DutySteps[i] <= DutySteps[i-1] {
			t.Fatal("duty steps not increasing")
		}
	}
}

// Property: parse(c.String()) succeeds and preserves compute power for
// arbitrary valid configurations.
func TestConfigRoundTripProperty(t *testing.T) {
	f := func(fast, slow uint8, scale uint8) bool {
		c := Config{Fast: int(fast % 8), Slow: int(slow % 8), Scale: int(scale%8) + 1}
		if c.Fast+c.Slow == 0 {
			return true
		}
		got, err := ParseConfig(c.String())
		if err != nil {
			return false
		}
		return approx(got.ComputePower(), c.ComputePower())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a machine's compute power equals the sum of per-core duties
// and is bounded by the core count.
func TestMachinePowerProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		duties := make([]float64, len(raw))
		sum := 0.0
		for i, r := range raw {
			duties[i] = (float64(r%8) + 1) / 8
			sum += duties[i]
		}
		m := NewMachine(duties...)
		return approx(m.ComputePower(), sum) && m.ComputePower() <= float64(m.NumCores())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
