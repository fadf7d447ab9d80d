package sim

import (
	"strings"
	"testing"
)

// TestWakeSteadyStateAllocs pins the engine's hottest path: parking a
// proc and waking it costs no allocations once the proc exists. Wake
// schedules a typed event the queue recycles; the park/resume handoff
// reuses the proc's wake channel.
func TestWakeSteadyStateAllocs(t *testing.T) {
	e := NewEnv(1)
	p := e.Go("parker", func(p *Proc) {
		for {
			p.Block()
		}
	})
	e.Run() // start the proc and let it park

	allocs := testing.AllocsPerRun(200, func() {
		e.Wake(p)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("wake/resume cycle allocates %v per run, want 0", allocs)
	}
	e.Close()
}

// TestQueueSteadyStateAllocs pins the request-queue hot path: a Put that
// wakes a parked consumer which Gets the item and re-parks allocates
// nothing in steady state. The backlog array rewinds on drain, the
// getters array is reused, and the wake event is recycled.
func TestQueueSteadyStateAllocs(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	consumed := 0
	e.Go("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			consumed++
		}
	})
	e.Run() // consumer parks on the empty queue

	allocs := testing.AllocsPerRun(200, func() {
		q.Put(1)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Put/Get cycle allocates %v per run, want 0", allocs)
	}
	if consumed == 0 {
		t.Fatal("consumer never ran")
	}
	q.Close()
	e.Run()
	e.Close()
}

// TestQueueReleasesConsumedSlots verifies the retention fix: consumed
// backlog slots are zeroed immediately, the dead prefix is bounded by
// compaction while a backlog persists, and a full drain rewinds the
// backing array for reuse.
func TestQueueReleasesConsumedSlots(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[*int](e)
	e.Go("churn", func(p *Proc) {
		const n = 1024
		for i := 0; i < n; i++ {
			v := i
			q.Put(&v)
		}
		for i := 0; i < n; i++ {
			if _, ok := q.TryGet(p); !ok {
				t.Error("TryGet missed a queued item")
				return
			}
			for j := 0; j < q.head; j++ {
				if q.items[j] != nil {
					t.Errorf("consumed slot %d still holds a pointer", j)
					return
				}
			}
			if q.head >= 64 && q.head*2 >= len(q.items) {
				t.Errorf("dead prefix not compacted: head=%d len=%d", q.head, len(q.items))
				return
			}
		}
		if q.head != 0 || len(q.items) != 0 {
			t.Errorf("drained queue did not rewind: head=%d len=%d", q.head, len(q.items))
		}
	})
	e.Run()
	e.Close()
}

// TestKillAllDeterministicTeardown is the regression test for the
// map-iteration hazard in KillAll: procs must be killed in ascending PID
// order so the wake events they receive get identical sequence numbers
// run after run, and the teardown portion of the event stream — hence
// the run digest — replays byte-identically. With map-order teardown
// this test flickers within a few iterations.
func TestKillAllDeterministicTeardown(t *testing.T) {
	teardown := func() string {
		e := NewEnv(7)
		var exits []string
		for i := 0; i < 12; i++ {
			name := string(rune('a' + i))
			p := e.Go(name, func(p *Proc) {
				p.Block()
			})
			p.OnExit(func() { exits = append(exits, name) })
		}
		e.Run() // everyone parks
		e.KillAll()
		e.Run() // everyone unwinds
		return strings.Join(exits, ",")
	}
	want := teardown()
	for i := 0; i < 25; i++ {
		if got := teardown(); got != want {
			t.Fatalf("teardown order diverged on iteration %d:\n got %s\nwant %s", i, got, want)
		}
	}
}
