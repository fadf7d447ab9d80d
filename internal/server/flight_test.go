package server

// White-box tests for the admission/coalescing/drain machinery, using
// synthetic executions gated on channels so every interleaving the
// protocol must survive is forced deterministically (no reliance on a
// real simulation being slow enough).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// testTimeout bounds every wait in this file; hitting it is a deadlock
// in the machinery under test.
const testTimeout = 10 * time.Second

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(testTimeout):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// gatedExec returns an exec that signals started (once), then blocks
// until gate closes (→ ok) or cancel fires (→ cancelled, with a fixed
// partial payload).
func gatedExec(started chan<- struct{}, gate <-chan struct{}) func(<-chan struct{}) *result {
	var once sync.Once
	return func(cancel <-chan struct{}) *result {
		if started != nil {
			once.Do(func() { close(started) })
		}
		select {
		case <-gate:
			return &result{status: 200, ctype: ctJSON, body: []byte(`{"ok":true}`)}
		case <-cancel:
			return &result{cancelled: true, partial: json.RawMessage(`{"partialCells":3}`)}
		}
	}
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("response %q is not an error envelope: %v", rec.Body.String(), err)
	}
	return env
}

func TestAdmitCoalescesIdenticalKeys(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{})
	gate := make(chan struct{})

	f1, o1 := s.admit("k", gatedExec(started, gate))
	if o1 != admitted {
		t.Fatalf("first admit = %v, want admitted", o1)
	}
	waitClosed(t, started, "execution start")
	f2, o2 := s.admit("k", nil)
	if o2 != joined {
		t.Fatalf("second admit = %v, want joined", o2)
	}
	if f2 != f1 {
		t.Fatal("joined a different flight than the one in flight")
	}
	close(gate)
	waitClosed(t, f1.done, "flight completion")
	if f1.res.status != 200 {
		t.Fatalf("flight result status = %d, want 200", f1.res.status)
	}

	// The finished flight is unlinked: an identical later request starts
	// a fresh one instead of reading stale state.
	f3, o3 := s.admit("k", gatedExec(nil, gate))
	if o3 != admitted || f3 == f1 {
		t.Fatalf("post-completion admit = %v (same flight: %t), want a fresh admitted flight", o3, f3 == f1)
	}
	waitClosed(t, f3.done, "fresh flight completion")

	st := s.StatsSnapshot()
	if st.Requests != 3 || st.Coalesced != 1 || st.Shed != 0 {
		t.Fatalf("stats = %d requests / %d coalesced / %d shed, want 3/1/0",
			st.Requests, st.Coalesced, st.Shed)
	}
	s.Drain()
}

func TestAdmitShedsWhenQueueFull(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	started := make(chan struct{})
	gate := make(chan struct{})

	// Occupy the only worker…
	fa, oa := s.admit("a", gatedExec(started, gate))
	if oa != admitted {
		t.Fatalf("blocker admit = %v, want admitted", oa)
	}
	waitClosed(t, started, "blocker start")
	// …fill the queue…
	fb, ob := s.admit("b", gatedExec(nil, gate))
	if ob != admitted {
		t.Fatalf("filler admit = %v, want admitted", ob)
	}
	// …and the next distinct request is shed, while an identical one
	// still coalesces (joining consumes no queue slot).
	if _, oc := s.admit("c", gatedExec(nil, gate)); oc != shed {
		t.Fatalf("overflow admit = %v, want shed", oc)
	}
	if _, od := s.admit("b", nil); od != joined {
		t.Fatalf("duplicate-of-queued admit = %v, want joined", od)
	}

	close(gate)
	waitClosed(t, fa.done, "blocker completion")
	waitClosed(t, fb.done, "filler completion")
	if st := s.StatsSnapshot(); st.Shed != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %d shed / %d coalesced, want 1/1", st.Shed, st.Coalesced)
	}
	s.Drain()
}

func TestDispatchDeadlineLastWaiterCancelsWithPartial(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{})
	gate := make(chan struct{}) // never closed: only cancellation ends the exec

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/sweep", nil)
	s.dispatch(rec, req, "k", gatedExec(started, gate), 20*time.Millisecond, "")

	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
	env := decodeEnvelope(t, rec)
	if env.Error.Code != "deadline_exceeded" {
		t.Fatalf("error code = %q, want deadline_exceeded", env.Error.Code)
	}
	if string(env.Partial) != `{"partialCells":3}` {
		t.Fatalf("partial = %q, want the execution's partial payload", env.Partial)
	}
	st := s.StatsSnapshot()
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if st.ActiveFlights != 0 {
		t.Fatalf("activeFlights = %d after deadline, want 0", st.ActiveFlights)
	}
	s.Drain()
}

func TestDispatchDeadlineNonLastWaiterLeavesFlightRunning(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{})
	gate := make(chan struct{})

	// Waiter 1: generous deadline, should get the real result.
	rec1 := httptest.NewRecorder()
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		req := httptest.NewRequest("POST", "/v1/sweep", nil)
		s.dispatch(rec1, req, "k", gatedExec(started, gate), testTimeout, "")
	}()
	waitClosed(t, started, "execution start")

	// Waiter 2: joins, then expires. Not the last waiter, so the
	// execution keeps running and no partial is attached.
	rec2 := httptest.NewRecorder()
	req2 := httptest.NewRequest("POST", "/v1/sweep", nil)
	s.dispatch(rec2, req2, "k", nil, 20*time.Millisecond, "")
	if rec2.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired waiter status = %d, want 504", rec2.Code)
	}
	if env := decodeEnvelope(t, rec2); env.Partial != nil {
		t.Fatalf("non-last expired waiter got partial %q, want none", env.Partial)
	}

	close(gate)
	waitClosed(t, done1, "patient waiter")
	if rec1.Code != http.StatusOK {
		t.Fatalf("patient waiter status = %d, want 200", rec1.Code)
	}
	if got := rec1.Body.String(); got != `{"ok":true}` {
		t.Fatalf("patient waiter body = %q", got)
	}
	s.Drain()
}

func TestDrainCancelsStragglersAndRefusesNewWork(t *testing.T) {
	s := New(Options{Workers: 1, DrainTimeout: 30 * time.Millisecond})
	started := make(chan struct{})
	gate := make(chan struct{}) // never closed: only drain can end it

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest("POST", "/v1/sweep", nil)
		s.dispatch(rec, req, "k", gatedExec(started, gate), testTimeout, "")
	}()
	waitClosed(t, started, "execution start")
	if s.Draining() {
		t.Fatal("Draining() true before Drain")
	}

	forced := s.Drain()
	if forced != 1 {
		t.Fatalf("Drain forced %d executions, want 1", forced)
	}
	waitClosed(t, done, "drained waiter")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drained waiter status = %d, want 503", rec.Code)
	}
	env := decodeEnvelope(t, rec)
	if env.Error.Code != "draining" {
		t.Fatalf("error code = %q, want draining", env.Error.Code)
	}
	if string(env.Partial) != `{"partialCells":3}` {
		t.Fatalf("partial = %q, want the execution's partial payload", env.Partial)
	}

	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, o := s.admit("k2", nil); o != refusedDraining {
		t.Fatalf("post-drain admit = %v, want refusedDraining", o)
	}
	if st := s.StatsSnapshot(); st.Forced != 1 {
		t.Fatalf("forced = %d, want 1", st.Forced)
	}
}

func TestAbandonedClientCancelsExecution(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{})
	cancelled := make(chan struct{})
	exec := func(cancel <-chan struct{}) *result {
		close(started)
		<-cancel
		close(cancelled)
		return &result{cancelled: true}
	}

	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/sweep", nil).WithContext(ctx)
		s.dispatch(rec, req, "k", exec, testTimeout, "")
	}()
	waitClosed(t, started, "execution start")

	stop() // client disconnects
	waitClosed(t, done, "dispatch return")
	waitClosed(t, cancelled, "cooperative cancellation")
	s.Drain()
	if st := s.StatsSnapshot(); st.ActiveFlights != 0 {
		t.Fatalf("activeFlights = %d, want 0", st.ActiveFlights)
	}
}
