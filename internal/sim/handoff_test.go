package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestSelfResumeCostsNoSwitch pins direct handoff's best case: a proc
// whose yield ends in an event that resumes the proc itself keeps
// control on its own goroutine. After its start, a lone sleeper costs
// no goroutine switch at all; the whole run costs two, driver to proc
// and back.
func TestSelfResumeCostsNoSwitch(t *testing.T) {
	e := newTestEnv(t, 1)
	got := -1
	e.Go("sleeper", func(p *Proc) {
		start := e.switches
		for i := 0; i < 1000; i++ {
			p.Sleep(1)
		}
		got = e.switches - start
	})
	e.Run()
	if got != 0 {
		t.Fatalf("1000 self-resuming sleeps cost %d goroutine switches, want 0", got)
	}
	if e.switches != 2 {
		t.Fatalf("run cost %d switches, want 2 (driver to proc and back)", e.switches)
	}
}

// TestAlternationCostsOneSwitchPerResume pins the handoff between two
// procs: each resume passes control straight from the yielding proc to
// the resumed one, one switch, with no round trip through the driver.
// Two procs handing a Mutex back and forth make every resume such a
// handoff.
func TestAlternationCostsOneSwitchPerResume(t *testing.T) {
	e := newTestEnv(t, 1)
	const rounds = 500
	var mu Mutex
	resumes := 0
	var switched, resumed int
	e.Go("a", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(1) // hold the mutex until b queues on it
		sw0, r0 := e.switches, resumes
		for i := 0; i < rounds; i++ {
			mu.Unlock(p) // hands the mutex to b
			mu.Lock(p)   // parks until b hands it back
			resumes++
		}
		switched, resumed = e.switches-sw0, resumes-r0
		mu.Unlock(p)
	})
	e.Go("b", func(p *Proc) {
		mu.Lock(p)
		resumes++
		for i := 0; i < rounds; i++ {
			mu.Unlock(p)
			mu.Lock(p)
			resumes++
		}
		mu.Unlock(p)
	})
	e.Run()
	if resumed != 2*rounds {
		t.Fatalf("window saw %d resumes, want %d", resumed, 2*rounds)
	}
	if switched != resumed {
		t.Fatalf("%d resumes cost %d goroutine switches, want exactly one each", resumed, switched)
	}
}

type logHandler struct{ log *[]string }

func (h logHandler) HandleEvent(_ int, arg any) { *h.log = append(*h.log, arg.(string)) }

// TestAfterTurnOrder pins the continuation contract: an AfterTurn
// recorded by a handler that resumed a proc runs once that proc yields
// again, and at once when the handler resumed nobody.
func TestAfterTurnOrder(t *testing.T) {
	e := newTestEnv(t, 1)
	var log []string
	h := logHandler{&log}
	p := e.Go("w", func(p *Proc) {
		p.Block()
		log = append(log, "turn")
		p.Block()
	})
	e.After(1, func() {
		p.FinishCompute()
		e.AfterTurn(h, 0, "after turn")
		log = append(log, "handler end")
	})
	e.After(2, func() {
		e.AfterTurn(h, 0, "at once")
		log = append(log, "idle handler end")
	})
	e.Run()
	want := "handler end,turn,after turn,at once,idle handler end"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}

// TestSecondResumePanics pins the one-handoff-per-event rule, and that
// the aborted event leaves both procs parked so Close still reaps them.
func TestSecondResumePanics(t *testing.T) {
	e := NewEnv(1)
	a := e.Go("a", func(p *Proc) { p.Block() })
	b := e.Go("b", func(p *Proc) { p.Block() })
	e.After(1, func() {
		a.FinishCompute()
		b.FinishCompute()
	})
	func() {
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "already resumes") {
				t.Fatalf("Run panicked with %v, want the second-resume panic", r)
			}
		}()
		e.Run()
	}()
	e.Close()
	if e.NumLive() != 0 {
		t.Fatalf("Close left %d procs", e.NumLive())
	}
}
