package sim_test

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"asmp/internal/core"
	"asmp/internal/cpu"
	"asmp/internal/sched"
	"asmp/internal/sim"
	"asmp/internal/simtime"
	"asmp/internal/workload"
)

// The event loop runs on whichever goroutine holds control, so kernel
// code often executes on a proc's goroutine. A panic there must still
// surface from Run on the driver with its original value, and teardown
// must still release every goroutine.

// runPanic calls run and returns the value it panicked with.
func runPanic(t *testing.T, run func()) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	run()
	t.Fatal("run returned without panicking")
	return nil
}

// settle polls until the goroutine count is back to base. Workers freed
// by Close exit in their own time, so it yields the processor between
// polls instead of sleeping on the wall clock.
func settle(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("%d goroutines after Close, want the baseline %d", runtime.NumGoroutine(), base)
}

func TestKernelPanicOnProcGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	env := sim.NewEnv(1)
	for i := 0; i < 3; i++ {
		env.Go("sleeper", func(p *sim.Proc) {
			for {
				p.Sleep(simtime.Millisecond)
			}
		})
	}
	offDriver := false
	env.After(5500*simtime.Microsecond, func() {
		// The driver passed control away and has not had it back.
		offDriver = sim.Switches(env) > 0
		panic("kernel boom")
	})
	if r := runPanic(t, func() { env.Run() }); r != "kernel boom" {
		t.Fatalf("Run panicked with %#v, want the kernel's own value", r)
	}
	if !offDriver {
		t.Fatal("the panicking event ran on the driver's goroutine")
	}
	env.Close()
	if env.NumLive() != 0 {
		t.Fatalf("Close left %d procs", env.NumLive())
	}
	settle(t, base)
}

// dutyProbe computes on every core and, mid-run, sets a non-finite duty
// from a closure event, which the scheduler refuses with a typed panic.
type dutyProbe struct{ onProc *bool }

func (dutyProbe) Name() string { return "duty-probe" }

func (w dutyProbe) Run(pl *workload.Platform) workload.Result {
	for i := 0; i < pl.Sched.Machine().NumCores(); i++ {
		pl.Env.Go("cruncher", func(p *sim.Proc) {
			for {
				p.Compute(1e6)
			}
		})
	}
	pl.Env.After(simtime.Millisecond, func() {
		*w.onProc = sim.Switches(pl.Env) > 0
		pl.Sched.SetDuty(0, math.NaN())
	})
	pl.Env.Run()
	return workload.Result{Metric: "unreachable"}
}

func TestDutyErrorOnProcGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := cpu.MustParseConfig("2f-2s/8")
	opt := sched.Defaults(sched.PolicyNaive)
	want := &sched.DutyError{Core: 0, Duty: math.NaN()}

	onProc := false
	pl := workload.NewPlatform(cfg, opt, 1)
	r := runPanic(t, func() { dutyProbe{&onProc}.Run(pl) })
	de, ok := r.(*sched.DutyError)
	if !ok || de.Error() != want.Error() {
		t.Fatalf("Run panicked with %#v, want %v", r, want)
	}
	if !onProc {
		t.Fatal("the SetDuty event ran on the driver's goroutine")
	}
	pl.Close()
	settle(t, base)

	// The same failure through the panic-isolating runner: the error
	// text is exactly the scheduler's own value, wrapped once.
	_, err := core.ExecuteSafe(core.RunSpec{Workload: dutyProbe{&onProc}, Config: cfg, Sched: opt, Seed: 1})
	if !errors.As(err, &de) {
		t.Fatalf("ExecuteSafe err = %v, want a *sched.DutyError", err)
	}
	if got, wantText := err.Error(), "core: run failed: "+want.Error(); got != wantText {
		t.Fatalf("ExecuteSafe err = %q, want %q", got, wantText)
	}
	settle(t, base)
}
